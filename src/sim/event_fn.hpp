// Small-buffer-optimized, move-only callable for simulator events.
//
// Every scheduled event used to pay a heap allocation for its
// std::function (libstdc++'s inline buffer is 16 bytes; even a two-pointer
// capture spills). EventFn stores callables up to kInlineBytes in place —
// sized so the data plane's payload-carrying lambdas (descriptor + vector +
// a few scalars) stay inline — and falls back to the heap only beyond that.
//
// The scheduler builds a callable straight into the EventFn that will run
// it (emplace), so the hot path never relocates a capture. The
// default constructor is user-provided on purpose: with `= default`,
// value-initialisation (`EventFn{}`, `fn = {}`, a value-initialised
// array or vector) would zero the whole inline buffer before anything is
// built in it. A class that holds an EventFn and is value-initialised on a
// hot path needs a user-provided default constructor of its own (GCC
// zero-fills an aggregate `T{}` whole).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace pd::sim {

class EventFn {
 public:
  /// Inline capture capacity. The scheduler's slab embeds EventFn directly,
  /// so raising this trades slab footprint for fewer spills.
  static constexpr std::size_t kInlineBytes = 128;
  /// Whether a callable of type D is stored in place (else on the heap).
  template <typename D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  EventFn() noexcept {}  // user-provided, not `= default`: see above
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<F>(f));
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  /// Replace the held callable with `f`, built in place: a callable is
  /// constructed once, here, and an EventFn argument is relocated once.
  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, EventFn>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "EventFn is move-only: pass it with std::move");
      *this = std::move(f);
    } else {
      reset();
      construct<D>(std::forward<F>(f));
    }
  }

  /// Destroy the held callable (releasing its captured state) and become
  /// empty.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct the callable into `dst` from `src`, destroying `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* dst, void* src) {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* p) { static_cast<D*>(p)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* p) { (**static_cast<D**>(p))(); },
      [](void* dst, void* src) {
        ::new (dst) D*(*static_cast<D**>(src));
      },
      [](void* p) { delete *static_cast<D**>(p); },
  };

  template <typename D, typename F>
  void construct(F&& f) {
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  void move_from(EventFn& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace pd::sim
