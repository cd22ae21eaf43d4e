#include "runtime/boutique.hpp"

#include <string>

#include "common/check.hpp"

namespace pd::runtime {
namespace {

using B = OnlineBoutique;

/// Per-visit compute costs (reference ns). The boutique microservices are
/// thin handlers (lookups, currency math, template snippets) — the demo's
/// handlers do microseconds of work, which is exactly why the data plane
/// dominates end-to-end cost (§1) and why the evaluation can expose
/// data-plane differences at all.
constexpr sim::Duration kFrontendNs = 2'500;
constexpr sim::Duration kCatalogNs = 9'000;
constexpr sim::Duration kCurrencyNs = 4'000;
constexpr sim::Duration kCartNs = 8'000;
constexpr sim::Duration kRecommendationNs = 12'000;
constexpr sim::Duration kShippingNs = 6'000;
constexpr sim::Duration kCheckoutNs = 8'000;
constexpr sim::Duration kPaymentNs = 10'000;
constexpr sim::Duration kEmailNs = 6'000;
constexpr sim::Duration kAdNs = 5'000;

/// Typical payload sizes (bytes) for the hop outputs.
constexpr std::uint32_t kSmall = 256;    // RPC-style request/ack
constexpr std::uint32_t kMedium = 1024;  // list responses
constexpr std::uint32_t kLarge = 4096;   // rendered fragments / catalogs

/// Deploy one boutique instance with its ids shifted by the cell offsets
/// (zero offsets + empty suffix = the classic single-instance layout,
/// byte-identical with earlier trees).
void deploy_one(Cluster& cluster, NodeId hot_node, NodeId cold_node,
                bool cart_store, TenantId tenant, std::uint32_t f_off,
                std::uint32_t c_off, const std::string& suffix,
                bool scope_tenant = false) {
  if (scope_tenant) {
    // Multi-cell deployments provision the tenant only where its functions
    // run — an all-nodes pool per tenant is quadratic at 16–64 nodes.
    cluster.add_tenant(tenant, /*weight=*/1, {hot_node, cold_node});
  } else {
    cluster.add_tenant(tenant, /*weight=*/1);
  }

  const auto f = [f_off](FunctionId base) {
    return FunctionId{base.value() + f_off};
  };
  const auto fe = [&](std::uint32_t out = kMedium) {
    return ChainHop{f(B::kFrontend), kFrontendNs, out};
  };
  // Frontend-adjacent CartService visits, marked for the RDMA state store
  // when requested. Only hops sandwiched between two frontend visits are
  // eligible (the frontend resumes its own next hop after the store op).
  const auto cart = [&](std::uint32_t out, StoreOp op) {
    return ChainHop{f(B::kCart), kCartNs, out, cart_store ? op : StoreOp::kNone};
  };

  const auto place = [&](FunctionId id, const char* name, NodeId node) {
    cluster.deploy(FunctionSpec{f(id), name + suffix, tenant}, node);
  };
  place(B::kFrontend, "frontend", hot_node);
  place(B::kCheckout, "checkout", hot_node);
  place(B::kRecommendation, "recommendation", hot_node);
  place(B::kProductCatalog, "productcatalog", cold_node);
  place(B::kCurrency, "currency", cold_node);
  place(B::kCart, "cart", cold_node);
  place(B::kShipping, "shipping", cold_node);
  place(B::kPayment, "payment", cold_node);
  place(B::kEmail, "email", cold_node);
  place(B::kAd, "ad", cold_node);

  const auto chain_id = [c_off](std::uint32_t base) { return base + c_off; };
  const auto chain_name = [&suffix](const char* base) {
    return base + suffix;
  };

  // Home Query: frontend fans out to currency, catalog, cart,
  // recommendation and ad — 12 exchanges.
  cluster.add_chain(Chain{
      chain_id(B::kHomeQuery), chain_name("Home Query"), tenant, kSmall,
      {fe(kSmall), {f(B::kCurrency), kCurrencyNs, kSmall}, fe(kSmall),
       {f(B::kProductCatalog), kCatalogNs, kLarge}, fe(kSmall),
       cart(kMedium, StoreOp::kRead), fe(kSmall),
       {f(B::kRecommendation), kRecommendationNs, kMedium}, fe(kSmall),
       {f(B::kAd), kAdNs, kSmall}, fe(kLarge)}});

  // View Cart: currency, cart, recommendation, catalog, shipping — 12
  // exchanges.
  cluster.add_chain(Chain{
      chain_id(B::kViewCart), chain_name("View Cart"), tenant, kSmall,
      {fe(kSmall), {f(B::kCurrency), kCurrencyNs, kSmall}, fe(kSmall),
       cart(kMedium, StoreOp::kRead), fe(kMedium),
       {f(B::kRecommendation), kRecommendationNs, kMedium}, fe(kSmall),
       {f(B::kProductCatalog), kCatalogNs, kLarge}, fe(kSmall),
       {f(B::kShipping), kShippingNs, kSmall}, fe(kLarge)}});

  // Product Query: catalog, currency, cart, recommendation, ad — 12
  // exchanges.
  cluster.add_chain(Chain{
      chain_id(B::kProductQuery), chain_name("Product Query"), tenant, kSmall,
      {fe(kSmall), {f(B::kProductCatalog), kCatalogNs, kLarge}, fe(kSmall),
       {f(B::kCurrency), kCurrencyNs, kSmall}, fe(kSmall),
       cart(kMedium, StoreOp::kRead), fe(kSmall),
       {f(B::kRecommendation), kRecommendationNs, kMedium}, fe(kSmall),
       {f(B::kAd), kAdNs, kSmall}, fe(kLarge)}});

  // Checkout: the long transactional chain through the checkout service.
  const ChainHop co{f(B::kCheckout), kCheckoutNs, kSmall};
  cluster.add_chain(Chain{
      chain_id(B::kCheckoutChain), chain_name("Checkout"), tenant, kMedium,
      {fe(kMedium), co,
       {f(B::kCart), kCartNs, kMedium}, co,
       {f(B::kProductCatalog), kCatalogNs, kMedium}, co,
       {f(B::kCurrency), kCurrencyNs, kSmall}, co,
       {f(B::kShipping), kShippingNs, kSmall}, co,
       {f(B::kPayment), kPaymentNs, kSmall}, co,
       {f(B::kEmail), kEmailNs, kSmall},
       {f(B::kCheckout), kCheckoutNs, kMedium},
       fe(kMedium)}});

  // Add To Cart: short write path.
  cluster.add_chain(Chain{
      chain_id(B::kAddToCart), chain_name("Add To Cart"), tenant, kSmall,
      {fe(kSmall), {f(B::kProductCatalog), kCatalogNs, kMedium}, fe(kSmall),
       cart(kSmall, StoreOp::kReadModifyWrite), fe(kSmall)}});

  // Currency conversion: the minimal chain.
  cluster.add_chain(Chain{
      chain_id(B::kCurrencyConvert), chain_name("Currency"), tenant, kSmall,
      {fe(kSmall), {f(B::kCurrency), kCurrencyNs, kSmall}, fe(kSmall)}});
}

}  // namespace

void OnlineBoutique::deploy(Cluster& cluster, NodeId hot_node,
                            NodeId cold_node, bool cart_store) {
  deploy_one(cluster, hot_node, cold_node, cart_store, kTenant,
             /*f_off=*/0, /*c_off=*/0, /*suffix=*/"");
}

std::vector<OnlineBoutique::Cell> OnlineBoutique::deploy_cells(
    Cluster& cluster, const std::vector<NodeId>& nodes, std::size_t cells) {
  PD_CHECK(!nodes.empty(), "deploy_cells needs at least one node");
  PD_CHECK(cells > 0, "deploy_cells needs at least one cell");
  const std::size_t n = nodes.size();
  std::vector<Cell> out;
  out.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    Cell cell;
    cell.index = static_cast<std::uint32_t>(c);
    cell.tenant = TenantId{static_cast<std::uint32_t>(1 + c)};
    cell.hot = nodes[(2 * c) % n];
    cell.cold = nodes[(2 * c + 1) % n];
    const auto off = static_cast<std::uint32_t>(c);
    cell.home_query = kHomeQuery + off * kChainStride;
    deploy_one(cluster, cell.hot, cell.cold, /*cart_store=*/false,
               cell.tenant, off * kFunctionStride, off * kChainStride,
               c == 0 ? std::string{} : "#" + std::to_string(c),
               /*scope_tenant=*/true);
    out.push_back(cell);
  }
  return out;
}

const std::vector<std::uint32_t>& OnlineBoutique::measured_chains() {
  static const std::vector<std::uint32_t> chains{kHomeQuery, kViewCart,
                                                 kProductQuery};
  return chains;
}

const char* OnlineBoutique::chain_name(std::uint32_t id) {
  switch (id) {
    case kHomeQuery: return "Home Query";
    case kViewCart: return "View Cart";
    case kProductQuery: return "Product Query";
    case kCheckoutChain: return "Checkout";
    case kAddToCart: return "Add To Cart";
    case kCurrencyConvert: return "Currency";
  }
  return "?";
}

}  // namespace pd::runtime
