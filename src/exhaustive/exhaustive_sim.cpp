#include "exhaustive/exhaustive_sim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <new>
#include <optional>

#include "common/log.hpp"
#include "common/word_kernels.hpp"
#include "fault/fault.hpp"
#include "obs/metric_names.hpp"
#include "obs/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "tt/truth_table.hpp"

namespace simsweep::exhaustive {

namespace {

using window::Window;
using window::kSlotConst0;

/// Batches whose total work Σ nodes × tt_words stays below this many
/// node-words run as one lane inline on the calling thread. A launch on
/// the shared pool costs a submission handshake (and, with concurrent
/// callers such as the batch service's clients, a wait on the pool's
/// submit mutex) that small batches cannot amortize.
constexpr std::size_t kInlineNodeWords = std::size_t{1} << 18;

/// "No mismatch found yet" in the per-item lowest-mismatch cells.
constexpr std::uint64_t kNoMismatch = ~std::uint64_t{0};

/// Largest entry size E (a power of two, at most max_tt) such that `lanes`
/// private tables of `slots` rows each fit the memory budget M, clamped
/// to the cache budget. Sets *clamped when the cache clamp bound E.
std::size_t entry_size(std::size_t lanes, std::size_t slots,
                       std::size_t max_tt, const Params& params,
                       bool* clamped) {
  const std::size_t lane_rows = lanes * slots;
  std::size_t entry = 1;
  while (entry * 2 * lane_rows <= params.memory_words && entry * 2 <= max_tt)
    entry *= 2;
  *clamped = false;
  if (params.cache_words != 0)
    while (entry > 1 && entry * lane_rows > params.cache_words) {
      entry /= 2;
      *clamped = true;
    }
  return entry;
}

/// Per-lane telemetry, padded so lanes never share a cache line.
struct alignas(64) LaneTotals {
  std::size_t tiles = 0;
  std::size_t words = 0;
  std::size_t rounds = 0;  ///< highest executed round + 1
};

/// Simulates one window node into its slot row (word-dimension kernel).
inline void sim_node(const window::WinNode& node, std::uint64_t* base,
                     std::size_t out_slot, std::size_t E, std::size_t nw) {
  std::uint64_t* out = base + out_slot * E;
  const std::uint64_t c0 = node.compl0 ? ~std::uint64_t{0} : 0;
  const std::uint64_t c1 = node.compl1 ? ~std::uint64_t{0} : 0;
  if (node.slot0 == kSlotConst0) {
    if (node.slot1 == kSlotConst0)
      kernels::fill_words(out, c0 & c1, nw);
    else
      kernels::and1_words(out, c0, base + node.slot1 * E, c1, nw);
  } else if (node.slot1 == kSlotConst0) {
    kernels::and1_words(out, c1, base + node.slot0 * E, c0, nw);
  } else {
    kernels::and2_words(out, base + node.slot0 * E, c0,
                        base + node.slot1 * E, c1, nw);
  }
}

/// Compares one item's root segments over this round's nw words. Returns
/// true on a mismatch and stores the global bit index (for CEX decoding).
/// `mask` is the valid-bit mask for single-word tables, 0 otherwise.
inline bool compare_item(const window::ItemSlots& s,
                         const std::uint64_t* base, std::size_t E,
                         std::size_t nw, std::uint64_t word0,
                         std::uint64_t mask, std::uint64_t* mismatch_out) {
  const std::uint64_t ca = s.compl_a ? ~std::uint64_t{0} : 0;
  const std::uint64_t cb = s.compl_b ? ~std::uint64_t{0} : 0;
  const std::uint64_t* pa =
      s.slot_a == kSlotConst0 ? nullptr : base + s.slot_a * E;
  const std::uint64_t* pb =
      s.slot_b == kSlotConst0 ? nullptr : base + s.slot_b * E;
  if (pa != nullptr && pb != nullptr && mask == 0) {
    std::uint64_t diff = 0;
    const std::size_t k = kernels::mismatch_words(pa, ca, pb, cb, nw, &diff);
    if (k == nw) return false;
    *mismatch_out = ((word0 + k) << 6) +
                    static_cast<std::uint64_t>(std::countr_zero(diff));
    return true;
  }
  for (std::size_t k = 0; k < nw; ++k) {
    const std::uint64_t va = (pa != nullptr ? pa[k] : 0) ^ ca;
    const std::uint64_t vb = (pb != nullptr ? pb[k] : 0) ^ cb;
    std::uint64_t diff = va ^ vb;
    if (mask != 0) diff &= mask;
    if (diff != 0) {
      *mismatch_out = ((word0 + k) << 6) +
                      static_cast<std::uint64_t>(std::countr_zero(diff));
      return true;
    }
  }
  return false;
}

}  // namespace

BatchResult check_batch(const aig::Aig& aig,
                        const std::vector<Window>& windows,
                        const Params& params) {
  (void)aig;
  BatchResult result;
  if (windows.empty()) return result;

  // --- Batch shape: tile and item offsets per window. ---
  std::vector<std::size_t> item_base(windows.size() + 1, 0);
  std::size_t max_slots = 1;
  std::size_t max_tt = 0;
  std::size_t node_words = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    item_base[i + 1] = item_base[i] + windows[i].items.size();
    max_slots = std::max(max_slots, windows[i].num_slots());
    max_tt = std::max(max_tt, windows[i].tt_words());
    node_words += windows[i].nodes.size() * windows[i].tt_words();
  }
  const std::size_t num_items = item_base.back();

  // --- Alg. 1 lines 1-4 per lane: every lane owns a private table of
  // max_slots rows of E words, and all lanes together fit M (never more
  // lanes than M holds at E = 1) and the cache clamp. Lanes beyond the
  // tile count would only shrink E for nothing, so drop them and re-derive
  // E until the two agree. ---
  parallel::ThreadPool& pool = parallel::ThreadPool::global();
  std::size_t lanes = node_words < kInlineNodeWords ? 1 : pool.concurrency();
  lanes = std::clamp<std::size_t>(params.memory_words / max_slots, 1, lanes);
  bool cache_clamped = false;
  std::size_t E = 1;
  std::vector<std::size_t> tile_base(windows.size() + 1, 0);
  for (;;) {
    E = entry_size(lanes, max_slots, max_tt, params, &cache_clamped);
    for (std::size_t i = 0; i < windows.size(); ++i)
      tile_base[i + 1] = tile_base[i] + (windows[i].tt_words() + E - 1) / E;
    if (tile_base.back() >= lanes) break;
    lanes = tile_base.back();
  }
  const std::size_t num_tiles = tile_base.back();
  const std::size_t lane_words = max_slots * E;
  result.entry_words = E;
  result.lanes = lanes;
  result.table_words = lanes * lane_words;

  // Publish once per batch (all exits): hot loops never touch the sink.
  const auto publish = [&] {
    if (params.obs == nullptr) return;
    obs::Registry& r = *params.obs;
    r.add(obs::metric::kExhaustiveBatches);
    r.add(obs::metric::kExhaustiveWindows, windows.size());
    r.add(obs::metric::kExhaustiveItems, num_items);
    r.add(obs::metric::kExhaustiveRounds, result.rounds);
    r.add(obs::metric::kExhaustiveWordsSimulated, result.words_simulated);
    r.add(obs::metric::kExhaustiveTiles, result.tiles);
    if (lanes > 1) r.add(obs::metric::kExhaustiveLaneBatches);
    if (cache_clamped) r.add(obs::metric::kExhaustiveCacheClampedBatches);
    // Rounds beyond the first exist only because the memory/cache cap
    // forced the table to be swept in slices (Alg. 1 line 2).
    if (result.rounds > 1) r.add(obs::metric::kExhaustiveRoundSplits, result.rounds - 1);
    r.add(obs::metric::kExhaustiveCexes, result.cexes.size());
    if (result.cancelled) r.add(obs::metric::kExhaustiveCancelledBatches);
    if (result.failure != BatchFailure::kNone)
      r.add(obs::metric::kExhaustiveFailedBatches);
  };

  // --- Resource-governed table allocation (DESIGN.md §2.4). This is THE
  // allocation Alg. 1's budget is about: one lease charges every lane's
  // table. A ledger denial or a bad_alloc here is a recoverable batch
  // failure the caller's degradation ladder answers by shrinking M — never
  // a crash. Host thread only, so the injected bad_alloc is catchable
  // right here; the table is left uninitialized (every tile writes each
  // row before reading it). ---
  fault::MemoryLease lease(params.ledger,
                           result.table_words * sizeof(std::uint64_t));
  if (!lease.ok()) {
    result.failure = BatchFailure::kMemoryBudget;
    publish();
    return result;
  }
  std::unique_ptr<std::uint64_t[]> simt;
  try {
    if (SIMSWEEP_FAULT_POINT(fault::sites::kExhaustiveSimtAlloc)) throw std::bad_alloc{};
    simt = std::make_unique_for_overwrite<std::uint64_t[]>(result.table_words);
  } catch (const std::bad_alloc&) {
    result.failure = BatchFailure::kAlloc;
    publish();
    return result;
  }

  // Lowest mismatching global bit per item (kNoMismatch while none). Lanes
  // lower it with an atomic minimum, so it ends as exactly what a serial
  // sweep of the rounds in order reports: the first mismatching round's
  // lowest bit.
  std::vector<std::atomic<std::uint64_t>> first_bad(num_items);
  for (auto& cell : first_bad) cell.store(kNoMismatch, std::memory_order_relaxed);

  const auto cancel_fired = [&] {
    return params.cancel != nullptr &&
           params.cancel->load(std::memory_order_relaxed);
  };
  const auto deadline_expired = [&] {
    return params.deadline != nullptr && params.deadline->expired();
  };

  // One tile = one (window, round): input projection, every node in
  // topological order, root compare — the word dimension of Fig. 3 over a
  // private table, with no barrier anywhere.
  const auto run_tile = [&](std::size_t wi, std::size_t r,
                            std::uint64_t* table, LaneTotals& totals) {
    const Window& w = windows[wi];
    const std::size_t tt = w.tt_words();
    const std::uint64_t word0 = r * E;
    const std::uint64_t bit0 = word0 << 6;
    std::atomic<std::uint64_t>* bad = first_bad.data() + item_base[wi];
    // Skip only when every item already mismatches below this tile: the
    // tile can then neither decide an item nor lower a counterexample.
    bool needed = false;
    for (std::size_t ii = 0; ii < w.items.size() && !needed; ++ii)
      needed = bad[ii].load(std::memory_order_relaxed) >= bit0;
    if (!needed) return;
    const std::size_t nw = std::min(E, tt - word0);
    const unsigned in = w.num_inputs();
    for (unsigned j = 0; j < in; ++j) {
      std::uint64_t* dst = table + j * E;
      for (std::size_t k = 0; k < nw; ++k)
        dst[k] = tt::projection_word(j, word0 + k);
    }
    for (std::size_t ni = 0; ni < w.wnodes.size(); ++ni)
      sim_node(w.wnodes[ni], table, in + ni, E, nw);
    const std::uint64_t mask = tt == 1 ? tt::word_mask(in) : 0;
    for (std::size_t ii = 0; ii < w.items.size(); ++ii) {
      std::uint64_t seen = bad[ii].load(std::memory_order_relaxed);
      if (seen < bit0) continue;  // an earlier round already mismatched
      std::uint64_t bit = 0;
      if (!compare_item(w.item_slots[ii], table, E, nw, word0, mask, &bit))
        continue;
      while (bit < seen &&
             !bad[ii].compare_exchange_weak(seen, bit,
                                            std::memory_order_relaxed)) {
      }
    }
    ++totals.tiles;
    totals.words += w.nodes.size() * nw;
    totals.rounds = std::max(totals.rounds, r + 1);
  };

  // Lanes claim tiles in ascending (window, round) order from one ticket
  // and stop before any tile once cancellation or the deadline fires.
  std::atomic<std::size_t> next_tile{0};
  std::vector<LaneTotals> totals(lanes);
  const auto run_lane = [&](std::size_t lane) {
    std::uint64_t* table = simt.get() + lane * lane_words;
    std::size_t wi = 0;
    for (;;) {
      if (cancel_fired() || deadline_expired()) return;
      const std::size_t t = next_tile.fetch_add(1, std::memory_order_relaxed);
      if (t >= num_tiles) return;
      while (tile_base[wi + 1] <= t) ++wi;  // tickets only grow per lane
      run_tile(wi, t - tile_base[wi], table, totals[lane]);
    }
  };
  if (lanes == 1) {
    run_lane(0);
  } else {
    pool.run_lanes(lanes, run_lane);
  }
  for (const LaneTotals& t : totals) {
    result.tiles += t.tiles;
    result.words_simulated += t.words;
    result.rounds = std::max(result.rounds, t.rounds);
  }
  if (cancel_fired()) {
    result.cancelled = true;
    publish();
    return result;
  }
  if (deadline_expired()) {
    result.failure = BatchFailure::kDeadline;
    publish();
    return result;
  }

  // --- Collect outcomes and CEXs. ---
  result.outcomes.reserve(num_items);
  for (std::size_t wi = 0; wi < windows.size(); ++wi) {
    const Window& w = windows[wi];
    for (std::size_t ii = 0; ii < w.items.size(); ++ii) {
      const std::uint64_t idx =
          first_bad[item_base[wi] + ii].load(std::memory_order_relaxed);
      const bool disproved = idx != kNoMismatch;
      result.outcomes.emplace_back(
          w.items[ii].tag,
          disproved ? ItemStatus::kDisproved : ItemStatus::kProved);
      if (disproved && params.collect_cex &&
          result.cexes.size() < params.max_cex) {
        Cex cex;
        cex.tag = w.items[ii].tag;
        cex.assignment.reserve(w.num_inputs());
        for (unsigned j = 0; j < w.num_inputs(); ++j)
          cex.assignment.emplace_back(w.inputs[j],
                                      static_cast<bool>((idx >> j) & 1));
        result.cexes.push_back(std::move(cex));
      }
    }
  }
  publish();
  return result;
}

std::optional<PairCheck> check_pair(const aig::Aig& aig, aig::Lit a,
                                    aig::Lit b,
                                    const std::vector<aig::Var>& inputs,
                                    const Params& params) {
  auto w = window::build_window(aig, inputs,
                                {window::CheckItem{a, b, /*tag=*/0}});
  if (!w) return std::nullopt;
  BatchResult r = check_batch(aig, {std::move(*w)}, params);
  PairCheck out;
  out.status = r.outcomes.at(0).second;
  if (!r.cexes.empty()) out.cex = std::move(r.cexes.front().assignment);
  return out;
}

}  // namespace simsweep::exhaustive
