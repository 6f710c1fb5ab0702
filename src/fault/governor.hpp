#pragma once
/// \file governor.hpp
/// \brief Resource governor primitives: memory ledger and phase deadlines
/// (DESIGN.md §2.4).
///
/// The exhaustive simulator's budget M (Alg. 1) bounds one batch; the
/// ledger bounds the *process*: every large allocation the engine makes
/// (simulation tables, merged-window builds, cut buffers) is charged
/// against one MemoryLedger before it happens, and a denied charge is a
/// recoverable fault the degradation ladder answers by shrinking the
/// unit and retrying — not an abort. Deadlines do the same for time:
/// each engine phase gets its own wall-clock cap, capped in turn by the
/// whole-engine `time_limit`, and expiry routes the phase's remaining
/// work to the sound undecided path.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace simsweep::fault {

/// A process-level byte budget with atomic charge/release accounting.
/// Thread-safe; shared by every phase of a run (and across portfolio
/// attempts when the caller passes one ledger to all of them).
class MemoryLedger {
 public:
  /// budget_bytes == 0 means unlimited (accounting still happens, so
  /// peak usage is observable).
  explicit MemoryLedger(std::uint64_t budget_bytes = 0)
      : budget_(budget_bytes) {}

  /// Attempts to reserve `bytes`; false (and a recorded denial) when the
  /// charge would exceed the budget. Never blocks.
  bool try_charge(std::uint64_t bytes) {
    std::uint64_t cur = charged_.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t next = cur + bytes;
      if (budget_ != 0 && next > budget_) {
        denials_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      if (charged_.compare_exchange_weak(cur, next,
                                         std::memory_order_relaxed)) {
        // Peak tracking is advisory: a stale max only under-reports.
        std::uint64_t peak = peak_.load(std::memory_order_relaxed);
        while (next > peak &&
               !peak_.compare_exchange_weak(peak, next,
                                            std::memory_order_relaxed)) {
        }
        return true;
      }
    }
  }

  void release(std::uint64_t bytes) {
    charged_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  std::uint64_t budget_bytes() const { return budget_; }
  std::uint64_t charged_bytes() const {
    return charged_.load(std::memory_order_relaxed);
  }
  std::uint64_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }
  std::uint64_t denials() const {
    return denials_.load(std::memory_order_relaxed);
  }

 private:
  const std::uint64_t budget_;
  std::atomic<std::uint64_t> charged_{0};
  std::atomic<std::uint64_t> peak_{0};
  std::atomic<std::uint64_t> denials_{0};
};

/// RAII charge against a MemoryLedger. Movable so it can live inside the
/// result-free scope of a batch; releases on destruction. A lease against
/// a null ledger always acquires (the governor is opt-in).
class MemoryLease {
 public:
  MemoryLease() = default;
  MemoryLease(MemoryLedger* ledger, std::uint64_t bytes)
      : ledger_(ledger), bytes_(bytes) {
    ok_ = ledger_ == nullptr || ledger_->try_charge(bytes_);
  }
  ~MemoryLease() { reset(); }

  MemoryLease(MemoryLease&& other) noexcept
      : ledger_(other.ledger_), bytes_(other.bytes_), ok_(other.ok_) {
    other.ledger_ = nullptr;
    other.ok_ = false;
  }
  MemoryLease& operator=(MemoryLease&& other) noexcept {
    if (this != &other) {
      reset();
      ledger_ = other.ledger_;
      bytes_ = other.bytes_;
      ok_ = other.ok_;
      other.ledger_ = nullptr;
      other.ok_ = false;
    }
    return *this;
  }
  MemoryLease(const MemoryLease&) = delete;
  MemoryLease& operator=(const MemoryLease&) = delete;

  /// True iff the charge was accepted (or no ledger governs it).
  bool ok() const { return ok_; }

  void reset() {
    if (ledger_ != nullptr && ok_) ledger_->release(bytes_);
    ledger_ = nullptr;
    ok_ = false;
  }

 private:
  MemoryLedger* ledger_ = nullptr;
  std::uint64_t bytes_ = 0;
  bool ok_ = false;
};

/// A fixed wall-clock deadline on the steady clock. Immutable after
/// construction; cheap to copy and to poll. The default-constructed
/// deadline never expires.
class Deadline {
 public:
  Deadline() = default;
  /// seconds <= 0 means unbounded.
  static Deadline after(double seconds) {
    Deadline d;
    if (seconds > 0) {
      d.bounded_ = true;
      d.at_ = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
    }
    return d;
  }

  /// The earlier of two deadlines; an unbounded one never wins.
  static Deadline earlier(const Deadline& a, const Deadline& b) {
    if (!a.bounded_) return b;
    if (!b.bounded_) return a;
    return a.at_ <= b.at_ ? a : b;
  }

  bool bounded() const { return bounded_; }
  bool expired() const {
    return bounded_ && std::chrono::steady_clock::now() >= at_;
  }
  /// Seconds left; +inf when unbounded, clamped at 0 when expired.
  double remaining_seconds() const {
    if (!bounded_) return std::numeric_limits<double>::infinity();
    const auto left = at_ - std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(left).count();
    return s > 0 ? s : 0.0;
  }

 private:
  bool bounded_ = false;
  std::chrono::steady_clock::time_point at_{};
};

}  // namespace simsweep::fault
