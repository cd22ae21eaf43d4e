// Online Boutique (§4.3): the 10-microservice demo application used for
// the end-to-end evaluation, expressed as Palladium chains.
//
// Call graphs are flattened into exchange sequences (see chain.hpp); the
// three measured chains (Home Query, View Cart, Product Query) each incur
// 12 data exchanges (> 11, matching §4.3), and the paper's placement is
// reproduced: potential hotspots (Frontend, Checkout, Recommendation) on
// one node, the remaining seven functions on the other.
#pragma once

#include "runtime/cluster.hpp"

namespace pd::runtime {

struct OnlineBoutique {
  // Function ids.
  static constexpr FunctionId kFrontend{1};
  static constexpr FunctionId kProductCatalog{2};
  static constexpr FunctionId kCurrency{3};
  static constexpr FunctionId kCart{4};
  static constexpr FunctionId kRecommendation{5};
  static constexpr FunctionId kShipping{6};
  static constexpr FunctionId kCheckout{7};
  static constexpr FunctionId kPayment{8};
  static constexpr FunctionId kEmail{9};
  static constexpr FunctionId kAd{10};

  // Chain ids.
  static constexpr std::uint32_t kHomeQuery = 1;
  static constexpr std::uint32_t kViewCart = 2;
  static constexpr std::uint32_t kProductQuery = 3;
  static constexpr std::uint32_t kCheckoutChain = 4;
  static constexpr std::uint32_t kAddToCart = 5;
  static constexpr std::uint32_t kCurrencyConvert = 6;

  static constexpr TenantId kTenant{1};

  /// Deploy the application: tenant pool, 10 functions placed across
  /// `hot_node` (Frontend/Checkout/Recommendation) and `cold_node`, and
  /// all six chains. For single-node systems (NightCore) pass the same
  /// node twice.
  ///
  /// With `cart_store` set, the frontend-adjacent CartService hops are
  /// marked for the RDMA state store (ISSUE 8): Home/View Cart/Product
  /// fetch the cart with a one-sided READ, Add To Cart commits it through
  /// the CAS ownership-token path. Checkout's cart visit stays RPC — it
  /// runs inside the checkout transaction, not off the frontend. The marks
  /// only take effect once Cluster::enable_cart_store has run.
  static void deploy(Cluster& cluster, NodeId hot_node, NodeId cold_node,
                     bool cart_store = false);

  // --- multi-cell scale-out (ISSUE 9) --------------------------------------

  /// Id strides between cells: cell c's functions are kFrontend + c*16 …,
  /// its chains kHomeQuery + c*8 …, its tenant TenantId{1 + c}.
  static constexpr std::uint32_t kFunctionStride = 16;
  static constexpr std::uint32_t kChainStride = 8;

  /// One deployed boutique instance.
  struct Cell {
    std::uint32_t index = 0;
    TenantId tenant{};
    NodeId hot{};
    NodeId cold{};
    std::uint32_t home_query = 0;  ///< this cell's Home Query chain id
  };

  /// Deploy `cells` independent boutique instances (one tenant each) over
  /// `nodes`, each on a consecutive hot/cold node pair — with
  /// nodes_per_switch >= 2 a cell's two nodes share a leaf, so its
  /// 12-exchange chains never cross the spine. Cells wrap around `nodes`
  /// when 2*cells exceeds it. This is the 16–64-node scale workload:
  /// per-cell tenants keep pools and chains isolated while every cell
  /// shares the fabric.
  static std::vector<Cell> deploy_cells(Cluster& cluster,
                                        const std::vector<NodeId>& nodes,
                                        std::size_t cells);

  /// The three chains Fig. 16 / Table 2 measure.
  static const std::vector<std::uint32_t>& measured_chains();
  static const char* chain_name(std::uint32_t id);
};

}  // namespace pd::runtime
