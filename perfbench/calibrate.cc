// `perfbench calibrate`: a fixed workload that uses none of the library, so
// no change to the program can change its speed. It mixes what a synthesis
// job spends its time on — hash-map grouping, short pairwise predicate
// scans within groups, and sorting — over data from a fixed-seed generator.
//
// On a shared 4-vCPU KVM guest (Intel Xeon, 2.0 GHz), machine speed drifted
// by up to 1.5x within minutes: the same job measured 1.34 to 2.18 s across
// ten consecutive runs, and the set-up step drifted by the same factor.
// run.py times this kernel between jobs and scales every reported time by
// (reference time / this run's median kernel time), which removes the drift
// that all code in the run shares.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "job.h"

namespace perfbench {
namespace {

/// Runs the kernel and returns the seconds its timed rounds took. Allocation
/// and page faults happen in an untimed warm-up round: timing them doubled
/// the kernel's spread between consecutive runs.
double Kernel(uint64_t* checksum) {
  constexpr size_t kRows = size_t{1} << 18;
  constexpr int kWarmupRounds = 1, kTimedRounds = 3;
  uint64_t x = 88172645463325252ULL;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<uint32_t> age(kRows);
  std::vector<uint64_t> group(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    age[i] = static_cast<uint32_t>(next() % 100);
    group[i] = next() % (kRows / 3);
  }
  std::unordered_map<uint64_t, std::vector<uint32_t>> groups;
  std::vector<uint64_t> keys(kRows);
  double start = 0.0;
  for (int round = 0; round < kWarmupRounds + kTimedRounds; ++round) {
    if (round == kWarmupRounds) start = NowSeconds();
    groups.clear();
    for (size_t i = 0; i < kRows; ++i) {
      groups[group[i] ^ static_cast<uint64_t>(round)].push_back(
          static_cast<uint32_t>(i));
    }
    for (const auto& [key, rows] : groups) {
      for (size_t a = 0; a < rows.size(); ++a) {
        for (size_t b = 0; b < rows.size(); ++b) {
          if (a != b && age[rows[a]] + 20 < age[rows[b]]) *checksum += key;
        }
      }
    }
    std::copy(group.begin(), group.end(), keys.begin());
    std::sort(keys.begin(), keys.end());
    *checksum += keys[keys.size() / 2];
  }
  return NowSeconds() - start;
}

}  // namespace

int CalibrateMain() {
  uint64_t checksum = 0;
  double calib_s = Kernel(&checksum);
  JsonLine out;
  out.Add("calib_s", calib_s).Add("checksum", checksum).Add("ok", true);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace perfbench
