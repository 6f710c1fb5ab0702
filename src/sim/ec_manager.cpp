#include "sim/ec_manager.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>


namespace simsweep::sim {

namespace {

/// Hash of a node's canonicalized signature row.
std::uint64_t row_hash(const Word* row, std::size_t n, bool flip) {
  const Word mask = flip ? ~Word{0} : 0;
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= (row[i] ^ mask) + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xFF51AFD7ED558CCDULL;
  }
  return h;
}

bool rows_equal(const Word* a, bool fa, const Word* b, bool fb,
                std::size_t n) {
  const Word mask = (fa != fb) ? ~Word{0} : 0;
  for (std::size_t i = 0; i < n; ++i)
    if ((a[i] ^ mask) != b[i]) return false;
  return true;
}

}  // namespace

void EcManager::build(const aig::Aig& aig, const Signatures& sigs) {
  classes_.clear();
  phase_.assign(aig.num_nodes(), 0);
  removed_.assign(aig.num_nodes(), 0);

  // Bucket nodes by canonical signature hash; buckets are candidate
  // classes, verified by exact row comparison to guard against collisions.
  std::unordered_map<std::uint64_t, std::vector<aig::Var>> buckets;
  buckets.reserve(aig.num_nodes());
  const std::size_t W = sigs.num_words;
  for (aig::Var v = 0; v < aig.num_nodes(); ++v) {
    const Word* row = sigs.row(v);
    const bool ph = W > 0 && (row[0] & 1);  // canonicalize by pattern 0
    phase_[v] = ph;
    buckets[row_hash(row, W, ph)].push_back(v);
  }
  for (auto& [hash, bucket] : buckets) {
    (void)hash;
    if (bucket.size() < 2) continue;
    // Split the bucket into groups of exactly-equal canonical rows.
    std::vector<std::uint8_t> used(bucket.size(), 0);
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (used[i]) continue;
      std::vector<aig::Var> cls{bucket[i]};
      for (std::size_t j = i + 1; j < bucket.size(); ++j) {
        if (used[j]) continue;
        if (rows_equal(sigs.row(bucket[i]), phase_[bucket[i]],
                       sigs.row(bucket[j]), phase_[bucket[j]], W)) {
          used[j] = 1;
          cls.push_back(bucket[j]);
        }
      }
      if (cls.size() >= 2) {
        std::sort(cls.begin(), cls.end());
        classes_.push_back(std::move(cls));
      }
    }
  }
  // Deterministic order regardless of hash-map iteration.
  std::sort(classes_.begin(), classes_.end());
  ++stats_.builds;
  stats_.classes_built += classes_.size();
}

void EcManager::refine(const Signatures& sigs) {
  const std::size_t W = sigs.num_words;
  std::vector<std::vector<aig::Var>> next;
  next.reserve(classes_.size());
  for (auto& cls : classes_) {
    // Partition members by canonicalized new signature. The first member's
    // canon is the reference; members matching it stay, others re-group.
    std::vector<std::vector<aig::Var>> parts;
    for (aig::Var v : cls) {
      bool placed = false;
      for (auto& part : parts) {
        if (rows_equal(sigs.row(part[0]), phase_[part[0]], sigs.row(v),
                       phase_[v], W)) {
          part.push_back(v);
          placed = true;
          break;
        }
      }
      if (!placed) parts.push_back({v});
    }
    std::size_t survivors = 0;
    for (auto& part : parts)
      if (part.size() >= 2) {
        ++survivors;
        next.push_back(std::move(part));
      }
    if (survivors == 0)
      ++stats_.classes_dissolved;
    else if (survivors >= 2 || parts.size() >= 2)
      ++stats_.class_splits;
  }
  classes_ = std::move(next);
  ++stats_.refines;
}

std::vector<CandidatePair> EcManager::candidate_pairs() const {
  std::vector<CandidatePair> pairs;
  for (const auto& cls : classes_) {
    // Representative: minimum id among non-removed members.
    aig::Var repr = 0;
    bool have_repr = false;
    for (aig::Var v : cls) {
      if (removed_[v]) continue;
      if (!have_repr) {
        repr = v;
        have_repr = true;
        continue;
      }
      pairs.push_back(CandidatePair{
          repr, v, static_cast<bool>(phase_[repr] ^ phase_[v])});
    }
  }
  return pairs;
}

void EcManager::mark_proved(aig::Var node) {
  assert(node < removed_.size());
  removed_[node] = 1;
}

void EcManager::remove_node(aig::Var node) {
  assert(node < removed_.size());
  removed_[node] = 1;
}

}  // namespace simsweep::sim
