// calib: a fixed piece of CPU-bound reference work, timed next to the
// program so that a change in the host's speed can be told apart from a
// change in the program.
//
//   calib [PASSES]
//
// Runs PASSES (default 1) passes of the same work and prints the CPU
// seconds of each pass, then a checksum of the results. The work resembles what the simulator's hot paths do, so that the
// host's slow phases (frequency, cache and memory contention from other
// tenants) slow both alike: a binary-heap event queue, a table-driven
// CRC-32, a pointer chase through a working set of the size of L2, and
// transcendental floating point. It never depends on the program's code,
// so a change to the program cannot move it.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

namespace {

uint64_t g_state = 0x9e3779b97f4a7c15ull;

uint64_t Next() {
  g_state ^= g_state << 13;
  g_state ^= g_state >> 7;
  g_state ^= g_state << 17;
  return g_state;
}

uint64_t HeapWork() {
  std::vector<std::pair<double, uint32_t>> heap;
  auto less = [](const std::pair<double, uint32_t>& a, const std::pair<double, uint32_t>& b) {
    return a.first > b.first;
  };
  for (uint32_t i = 0; i < 4096; ++i) {
    heap.emplace_back(static_cast<double>(Next() % 1000000), i);
    std::push_heap(heap.begin(), heap.end(), less);
  }
  uint64_t sum = 0;
  for (int i = 0; i < 400000; ++i) {
    std::pop_heap(heap.begin(), heap.end(), less);
    auto top = heap.back();
    heap.pop_back();
    sum += top.second;
    heap.emplace_back(top.first + static_cast<double>(Next() % 5000), top.second);
    std::push_heap(heap.begin(), heap.end(), less);
  }
  return sum;
}

uint64_t CrcWork() {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::vector<uint8_t> buf(1500);
  for (auto& b : buf) b = static_cast<uint8_t>(Next());
  uint64_t sum = 0;
  for (int frame = 0; frame < 5000; ++frame) {
    uint32_t crc = 0xFFFFFFFFu;
    for (uint8_t b : buf) crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8);
    sum += crc;
    buf[frame % buf.size()] ^= static_cast<uint8_t>(crc);
  }
  return sum;
}

uint64_t ChaseWork() {
  const size_t n = size_t{1} << 16;  // 512 KiB of indices
  std::vector<uint64_t> next(n);
  for (size_t i = 0; i < n; ++i) next[i] = i;
  for (size_t i = n - 1; i > 0; --i) std::swap(next[i], next[Next() % i]);  // one cycle: Sattolo
  uint64_t at = 0, sum = 0;
  for (int i = 0; i < 3000000; ++i) {
    at = next[at];
    sum += at;
  }
  return sum;
}

uint64_t MathWork() {
  double acc = 0;
  for (int i = 1; i < 750000; ++i) {
    const double d = 1.0 + static_cast<double>(Next() % 10000) * 0.01;
    acc += 10.0 * std::log10(d) - std::exp(-d * 0.01) + std::sqrt(d);
  }
  return static_cast<uint64_t>(acc);
}

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

}  // namespace

int main(int argc, char** argv) {
  const int passes = argc > 1 ? std::atoi(argv[1]) : 1;
  uint64_t checksum = 0;
  for (int p = 0; p < passes; ++p) {
    const double start = CpuSeconds();
    g_state = 0x9e3779b97f4a7c15ull;
    checksum += HeapWork() + CrcWork() + ChaseWork() + MathWork();
    std::printf("%.6f ", CpuSeconds() - start);
  }
  std::printf("%llu\n", static_cast<unsigned long long>(checksum));
  return 0;
}
