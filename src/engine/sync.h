// Annotated synchronization primitives for Clang Thread Safety Analysis.
//
// Thin wrappers over std::mutex / std::shared_mutex / std::condition_variable
// carrying the capability attributes from engine/annotations.h. The standard
// library types have no such attributes (libstdc++ ships none), so fields
// cannot be NETDIAG_GUARDED_BY a raw std::mutex -- code that wants the
// static checks uses these types instead. Zero runtime cost: every method
// forwards directly to the wrapped primitive.
//
// Also defines sync::role -- a zero-size capability for logical roles that
// are established by protocol rather than by a lock operation (the
// stream_server's caller-held single-drainer role, the streaming detectors'
// single-pusher contract). Acquiring or asserting a role compiles to
// nothing; it exists purely to let the analysis track which functions may
// touch role-confined state.
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "engine/annotations.h"

namespace netdiag::sync {

class NETDIAG_CAPABILITY("mutex") mutex {
public:
    mutex() = default;
    mutex(const mutex&) = delete;
    mutex& operator=(const mutex&) = delete;

    void lock() NETDIAG_ACQUIRE() { mu_.lock(); }
    void unlock() NETDIAG_RELEASE() { mu_.unlock(); }
    [[nodiscard]] bool try_lock() NETDIAG_TRY_ACQUIRE(true) { return mu_.try_lock(); }

    // Escape hatch for condition_variable below; holders of a reference to
    // the raw mutex bypass the analysis, so keep uses confined to this
    // header.
    std::mutex& native() noexcept { return mu_; }

private:
    std::mutex mu_;
};

class NETDIAG_CAPABILITY("shared_mutex") shared_mutex {
public:
    shared_mutex() = default;
    shared_mutex(const shared_mutex&) = delete;
    shared_mutex& operator=(const shared_mutex&) = delete;

    void lock() NETDIAG_ACQUIRE() { mu_.lock(); }
    void unlock() NETDIAG_RELEASE() { mu_.unlock(); }
    [[nodiscard]] bool try_lock() NETDIAG_TRY_ACQUIRE(true) { return mu_.try_lock(); }

    void lock_shared() NETDIAG_ACQUIRE_SHARED() { mu_.lock_shared(); }
    void unlock_shared() NETDIAG_RELEASE_SHARED() { mu_.unlock_shared(); }
    [[nodiscard]] bool try_lock_shared() NETDIAG_TRY_ACQUIRE_SHARED(true) { return mu_.try_lock_shared(); }

private:
    std::shared_mutex mu_;
};

// RAII exclusive lock on sync::mutex (the std::lock_guard shape, visible to
// the analysis). Also the handle sync::condition_variable waits on.
class NETDIAG_SCOPED_CAPABILITY mutex_lock {
public:
    explicit mutex_lock(mutex& mu) NETDIAG_ACQUIRE(mu) : mu_(&mu) { mu_->lock(); }
    ~mutex_lock() NETDIAG_RELEASE() { mu_->unlock(); }

    mutex_lock(const mutex_lock&) = delete;
    mutex_lock& operator=(const mutex_lock&) = delete;

private:
    friend class condition_variable;
    mutex* mu_;
};

// RAII exclusive lock on sync::shared_mutex.
class NETDIAG_SCOPED_CAPABILITY exclusive_lock {
public:
    explicit exclusive_lock(shared_mutex& mu) NETDIAG_ACQUIRE(mu) : mu_(&mu) { mu_->lock(); }
    ~exclusive_lock() NETDIAG_RELEASE() { mu_->unlock(); }

    exclusive_lock(const exclusive_lock&) = delete;
    exclusive_lock& operator=(const exclusive_lock&) = delete;

private:
    shared_mutex* mu_;
};

// RAII shared (reader) lock on sync::shared_mutex.
class NETDIAG_SCOPED_CAPABILITY shared_lock {
public:
    explicit shared_lock(shared_mutex& mu) NETDIAG_ACQUIRE_SHARED(mu) : mu_(&mu) {
        mu_->lock_shared();
    }
    ~shared_lock() NETDIAG_RELEASE() { mu_->unlock_shared(); }

    shared_lock(const shared_lock&) = delete;
    shared_lock& operator=(const shared_lock&) = delete;

private:
    shared_mutex* mu_;
};

// Condition variable bound to sync::mutex via mutex_lock.
//
// The analysis models a wait as keeping the capability held throughout
// (the atomic release/reacquire inside wait is invisible to it -- the
// standard convention for annotated condvars). Consequence for callers:
// wait predicates that read guarded state must be written as manual
// `while (!pred) cv.wait(lock);` loops in the holding function, not as
// lambdas -- the analysis checks a lambda as a separate function that does
// not hold the lock.
class condition_variable {
public:
    condition_variable() = default;
    condition_variable(const condition_variable&) = delete;
    condition_variable& operator=(const condition_variable&) = delete;

    void notify_one() noexcept { cv_.notify_one(); }
    void notify_all() noexcept { cv_.notify_all(); }

    // Caller must hold `lock` (enforced at the call site by mutex_lock's
    // scoped capability; not expressible as an attribute on `lock` itself).
    void wait(mutex_lock& lock) {
        std::unique_lock<std::mutex> native(lock.mu_->native(), std::adopt_lock);
        cv_.wait(native);
        native.release();  // ownership stays with `lock`
    }

private:
    std::condition_variable cv_;
};

// A zero-size capability for logical roles enforced by protocol: ownership
// changes hands through a flag (set under a mutex, but held long after it
// is released) or a documented single-caller contract, not through a lock
// the analysis can watch. The methods are no-ops that mark the hand-off
// points; the payoff is that every field NETDIAG_GUARDED_BY a role can
// only be touched by functions that acquired or asserted it.
class NETDIAG_CAPABILITY("role") role {
public:
    role() = default;

    // The protocol just granted this thread the role (e.g. it set the
    // draining flag).
    void acquire() const noexcept NETDIAG_ACQUIRE() {}

    // The protocol released the role (e.g. the draining flag was cleared).
    void release() const noexcept NETDIAG_RELEASE() {}

    // The role is held here by contract the analysis cannot see (e.g. the
    // documented one-pusher-per-stream rule). Runtime no-op.
    void assert_held() const noexcept NETDIAG_ASSERT_CAPABILITY(this) {}
};

}  // namespace netdiag::sync
