// Small-buffer, move-only callables for the simulator's continuations.
//
// std::function heap-allocates any capture larger than its (tiny,
// implementation-defined) SSO buffer and anything not trivially copyable, so
// a continuation chain that nests callbacks pays one malloc/free pair per
// step.  InlineFn<Sig, N> stores captures of up to N bytes inline, falls
// back to the heap only beyond that, and is move-only so captured state is
// never duplicated.  The buffer is pointer-aligned: continuations capture
// pointers, ids and small handles, never over-aligned types.
//
// The callback contract (DESIGN.md §10): the engine slot is SmallFn, 64
// inline bytes.  The Cell machine's mechanisms take 32-byte continuations so
// that a mechanism's own wrapper (`this`, an SPE id, the caller's
// continuation) still fits one engine slot; the runtime's continuations
// capture `{this, record}` and fit in 16.  `fits_inline<F>` lets hot call
// sites static_assert that property.  A smaller InlineFn converts to a larger
// one of the same signature without re-boxing.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace cbe::sim {

namespace detail {

template <typename Sig>
struct FnOps;

/// One vtable per (signature, stored type), shared by every buffer size, so
/// a callable relocates between InlineFns of different capacities.
template <typename R, typename... Args>
struct FnOps<R(Args...)> {
  R (*invoke)(void*, Args&&...);
  R (*consume)(void*, Args&&...);  // invoke, then destroy (also on a throw)
  void (*relocate)(void* dst, void* src) noexcept;  // move + destroy src
  void (*destroy)(void*) noexcept;

  template <typename D>
  static constexpr FnOps inline_ops = {
      [](void* p, Args&&... a) -> R {
        return (*std::launder(reinterpret_cast<D*>(p)))(
            std::forward<Args>(a)...);
      },
      [](void* p, Args&&... a) -> R {
        struct Destroy {
          D* d;
          ~Destroy() { d->~D(); }
        } const held{std::launder(reinterpret_cast<D*>(p))};
        return (*held.d)(std::forward<Args>(a)...);
      },
      [](void* dst, void* src) noexcept {
        D* s = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* p) noexcept { std::launder(reinterpret_cast<D*>(p))->~D(); },
  };

  template <typename D>
  static constexpr FnOps heap_ops = {
      [](void* p, Args&&... a) -> R {
        return (**std::launder(reinterpret_cast<D**>(p)))(
            std::forward<Args>(a)...);
      },
      [](void* p, Args&&... a) -> R {
        const std::unique_ptr<D> held(*std::launder(reinterpret_cast<D**>(p)));
        return (*held)(std::forward<Args>(a)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
      },
      [](void* p) noexcept { delete *std::launder(reinterpret_cast<D**>(p)); },
  };
};

}  // namespace detail

template <typename Sig, std::size_t N>
class InlineFn;

namespace detail {
template <typename T>
struct is_inline_fn : std::false_type {};
template <typename Sig, std::size_t N>
struct is_inline_fn<InlineFn<Sig, N>> : std::true_type {};
}  // namespace detail

template <typename R, typename... Args, std::size_t N>
class InlineFn<R(Args...), N> {
  static_assert(N >= sizeof(void*), "buffer must hold the heap fallback");
  using Ops = detail::FnOps<R(Args...)>;
  template <typename, std::size_t>
  friend class InlineFn;

 public:
  /// True when a callable of type F is stored without touching the heap.
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(std::decay_t<F>) <= N &&
      alignof(std::decay_t<F>) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!detail::is_inline_fn<D>::value &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<F>(f));
  }

  /// Widening move from a smaller buffer: relocates, never re-boxes.
  template <std::size_t M, typename = std::enable_if_t<(M < N)>>
  InlineFn(InlineFn<R(Args...), M>&& o) noexcept {  // NOLINT
    steal(o);
  }

  InlineFn(InlineFn&& o) noexcept { steal(o); }
  InlineFn& operator=(InlineFn&& o) noexcept {
    if (this != &o) {
      reset();
      steal(o);
    }
    return *this;
  }
  InlineFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  /// Replaces the target with `f`, constructed directly in this buffer, so
  /// a holder that never moves (the engine's event slots) pays for one
  /// construction and no relocation.  On a throw the InlineFn is left empty.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!detail::is_inline_fn<D>::value &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  void emplace(F&& f) {
    reset();
    construct<D>(std::forward<F>(f));
  }
  /// An InlineFn of the same signature and no larger buffer is relocated.
  template <std::size_t M>
  void emplace(InlineFn<R(Args...), M>&& o) noexcept {
    static_assert(M <= N, "relocation into a smaller buffer");
    reset();
    steal(o);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... a) {
    return ops_->invoke(buf_, std::forward<Args>(a)...);
  }
  /// Calls the target once and destroys it, in one indirect call.  The
  /// InlineFn is empty from the call on, also when the call throws.
  R consume(Args... a) {
    const Ops* ops = std::exchange(ops_, nullptr);
    return ops->consume(buf_, std::forward<Args>(a)...);
  }

 private:
  template <typename D, typename F>
  void construct(F&& f) {
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &Ops::template inline_ops<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &Ops::template heap_ops<D>;
    }
  }
  template <std::size_t M>
  void steal(InlineFn<R(Args...), M>& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char buf_[N];
};

/// The engine's event slot.
using SmallFn = InlineFn<void(), 64>;

/// Capacity of the continuations handed to the Cell machine, the PPE and
/// the loop executor: room for a `{this, record}` capture, and small enough
/// that each mechanism's wrapper around it still fits one engine slot.
inline constexpr std::size_t kContinuationBytes = 32;

}  // namespace cbe::sim
