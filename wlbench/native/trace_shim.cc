// Link-time tracing shim for the benchmark's traced build of wlansim_run and
// wlansim_queryd (see CMakeLists.txt next to this file).
//
// Every function below named __wrap_<sym> is installed with the linker's
// --wrap=<sym>: calls from one translation unit of the program to <sym> in
// another land here first, and __real_<sym> reaches the original. Nothing in
// the program is edited. Calls that stay inside one translation unit, and
// inline functions, are not seen — each probe below sits on a boundary that
// is crossed between translation units.
//
// Per probe and thread the shim keeps a call count, the total time spent
// inside the call, and its self time (total minus the time of nested probed
// calls). A few probes also read the program's own public work counters
// before and after the call (Channel::send_stats(), InterferenceTracker::
// stats(), EventQueue::TombstoneCount()), and a handful of coarse spans
// (replications, campaigns, queries) are logged one by one.
// Everything stays in memory and is written as one JSON file per process at
// exit, into the directory named by WLBENCH_TRACE_DIR (nothing is written
// when it is unset).
//
// A probe whose symbol a later change renames or removes (a changed
// signature changes the mangled name) leaves an undefined __real_<sym>, so
// the traced build fails to link instead of reporting zero calls.
#include <time.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define WLBENCH_HAVE_TSC 1
#endif

#include "core/event_queue.h"
#include "core/mac_address.h"
#include "core/packet.h"
#include "crypto/ccm.h"
#include "crypto/crc32.h"
#include "mac/frames.h"
#include "phy/channel.h"
#include "phy/error_model.h"
#include "phy/interference.h"
#include "query/catalog.h"
#include "query/engine.h"
#include "query/extent_cache.h"
#include "query/server.h"
#include "results/binary_format.h"
#include "results/binary_reader.h"
#include "runner/campaign.h"
#include "runner/metric_recorder.h"
#include "runner/result_consumer.h"
#include "runner/sweep.h"

namespace wlbench {
namespace {

// Probe identifiers, in the order of kProbeNames.
enum Probe : int {
  kAllocSlot,
  kSiftUp,
  kCancelSlot,
  kNextTime,
  kPopNext,
  kCrc32,
  kCrcUpdate,
  kCcmEncrypt,
  kCcmDecrypt,
  kRc4Init,
  kRc4Process,
  kRc4Skip,
  kMichael,
  kMichaelMsdu,
  kTkipPhase1,
  kTkipPhase2,
  kBuildMpdu,
  kParseMpdu,
  kChannelSend,
  kAddSignal,
  kTotalPower,
  kTimeBelow,
  kSuccessProbability,
  kMeanSinr,
  kEvaluateReception,
  kCleanup,
  kRunCampaign,
  kRunSweep,
  kPipelineDeliver,
  kPipelineEnd,
  kEncodeScalar,
  kEncodeU64,
  kEncodeBins,
  kEncodeFileHeader,
  kEncodeGroupHeader,
  kReadFile,
  kReadScalar,
  kReadDist,
  kRegisterFile,
  kExecute,
  kCacheGet,
  kNumProbes
};

constexpr const char* kProbeNames[kNumProbes] = {
    "event.alloc_slot",     "event.sift_up",         "event.cancel_slot",
    "event.next_time",      "event.pop_next",        "crc.crc32",
    "crc.builder_update",   "cipher.ccm_encrypt",    "cipher.ccm_decrypt",
    "cipher.rc4_init",      "cipher.rc4_process",    "cipher.rc4_skip",
    "cipher.michael",       "cipher.michael_msdu",   "cipher.tkip_phase1",
    "cipher.tkip_phase2",   "mac.build_mpdu",        "mac.parse_mpdu",
    "phy.channel_send",     "phy.add_signal",        "phy.total_power",
    "phy.time_below",       "phy.success_prob",      "phy.mean_sinr",
    "phy.evaluate_reception", "phy.cleanup",         "runner.run_campaign",
    "runner.run_sweep",     "runner.deliver",        "runner.pipeline_end",
    "results.encode_scalar", "results.encode_u64",   "results.encode_bins",
    "results.encode_file_header", "results.encode_group_header",
    "results.read_file",    "results.read_scalar",   "results.read_dist",
    "query.register_file",  "query.execute",         "query.cache_get",
};

// Named work counters read from the program around probed calls.
enum Counter : int {
  kCrcBytes,
  kFcsChecks,
  kCancelsEffective,
  kSendOffers,
  kSendCandidates,
  kLinkHits,
  kLinkMisses,
  kSignalsScanned,
  kNumCounters
};

constexpr const char* kCounterNames[kNumCounters] = {
    "crc_bytes",       "fcs_checks", "cancels_effective", "send_offers",
    "send_candidates", "link_hits",  "link_misses",       "signals_scanned",
};

// One logged coarse span. Times are CLOCK_MONOTONIC nanoseconds, so they
// line up with the client-side clock of the benchmark process.
struct LoggedSpan {
  const char* kind;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t arg;         // campaigns: worker threads; replications: index
  uint64_t self_ticks;  // queries: the call's own time minus nested probes
  std::string label;    // queries: the verb
};

constexpr int kMaxDepth = 64;

struct Frame {
  int probe;
  uint64_t start;
  uint64_t child;
};

struct ThreadBlock {
  uint64_t calls[kNumProbes] = {};
  uint64_t total[kNumProbes] = {};
  uint64_t self[kNumProbes] = {};
  uint64_t counters[kNumCounters] = {};
  Frame stack[kMaxDepth];
  int depth = 0;
  uint64_t rep_start_ns = 0;
  uint64_t tid = 0;
  std::vector<LoggedSpan> spans;
};

// Blocks are never freed, so the exit-time writer can read the blocks of
// threads that have already ended.
std::mutex g_registry_mu;
std::vector<ThreadBlock*>* g_registry = new std::vector<ThreadBlock*>();
uint64_t g_cache_stats[4] = {};  // lookups, hits, misses, evictions
bool g_cache_stats_seen = false;

uint64_t MonoNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

inline uint64_t Ticks() {
#ifdef WLBENCH_HAVE_TSC
  return __rdtsc();
#else
  return MonoNs();
#endif
}

// Calibration pair taken at load time; the exit writer takes the second.
const uint64_t g_start_ticks = Ticks();
const uint64_t g_start_ns = MonoNs();

ThreadBlock* Block() {
  thread_local ThreadBlock* block = nullptr;
  if (block == nullptr) {
    block = new ThreadBlock();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    block->tid = g_registry->size();
    g_registry->push_back(block);
  }
  return block;
}

// Times one probed call on the current thread; nested probes are children.
class Span {
 public:
  Span(ThreadBlock* block, int probe) : block_(block), probe_(probe) {
    if (block_->depth < kMaxDepth) {
      block_->stack[block_->depth] = Frame{probe, Ticks(), 0};
    }
    ++block_->depth;
  }
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span and returns its self ticks; later calls return the same.
  uint64_t Close() {
    if (closed_) {
      return self_;
    }
    closed_ = true;
    const uint64_t end = Ticks();
    --block_->depth;
    ++block_->calls[probe_];
    if (block_->depth < kMaxDepth) {
      const Frame& frame = block_->stack[block_->depth];
      const uint64_t duration = end - frame.start;
      self_ = duration - frame.child;
      block_->total[probe_] += duration;
      block_->self[probe_] += self_;
      if (block_->depth > 0 && block_->depth - 1 < kMaxDepth) {
        block_->stack[block_->depth - 1].child += duration;
      }
    }
    return self_;
  }

 private:
  ThreadBlock* block_;
  int probe_;
  bool closed_ = false;
  uint64_t self_ = 0;
};

int TopProbe(const ThreadBlock* block) {
  if (block->depth <= 0 || block->depth > kMaxDepth) {
    return -1;
  }
  return block->stack[block->depth - 1].probe;
}

std::string Verb(const std::string& query) {
  size_t begin = query.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) {
    return "";
  }
  size_t end = query.find_first_of(" \t\r\n", begin);
  return query.substr(begin, end == std::string::npos ? std::string::npos : end - begin);
}

void JsonString(FILE* out, const std::string& text) {
  std::fputc('"', out);
  for (char c : text) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', out);
      std::fputc(c, out);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(out, "\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
    } else {
      std::fputc(c, out);
    }
  }
  std::fputc('"', out);
}

// Writes this process's trace. Ticks are converted to nanoseconds with the
// load-to-exit calibration against CLOCK_MONOTONIC.
void WriteTrace() {
  const char* dir = std::getenv("WLBENCH_TRACE_DIR");
  if (dir == nullptr || *dir == '\0') {
    return;
  }
  const uint64_t end_ticks = Ticks();
  const uint64_t end_ns = MonoNs();
  const double ns_per_tick =
      end_ticks > g_start_ticks && end_ns > g_start_ns
          ? static_cast<double>(end_ns - g_start_ns) / static_cast<double>(end_ticks - g_start_ticks)
          : 1.0;
  char comm[64] = "unknown";
  if (FILE* f = std::fopen("/proc/self/comm", "r")) {
    if (std::fgets(comm, sizeof(comm), f) != nullptr) {
      comm[std::strcspn(comm, "\n")] = '\0';
    }
    std::fclose(f);
  }
  const std::string path = std::string(dir) + "/trace-" + std::to_string(getpid()) + ".json";
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(g_registry_mu);
  uint64_t calls[kNumProbes] = {};
  uint64_t total[kNumProbes] = {};
  uint64_t self[kNumProbes] = {};
  uint64_t counters[kNumCounters] = {};
  for (const ThreadBlock* block : *g_registry) {
    for (int p = 0; p < kNumProbes; ++p) {
      calls[p] += block->calls[p];
      total[p] += block->total[p];
      self[p] += block->self[p];
    }
    for (int c = 0; c < kNumCounters; ++c) {
      counters[c] += block->counters[c];
    }
  }
  std::fprintf(out, "{\"process\": ");
  JsonString(out, comm);
  std::fprintf(out, ", \"start_ns\": %llu, \"end_ns\": %llu, \"probes\": {",
               static_cast<unsigned long long>(g_start_ns), static_cast<unsigned long long>(end_ns));
  for (int p = 0; p < kNumProbes; ++p) {
    std::fprintf(out, "%s\"%s\": [%llu, %.1f, %.1f]", p == 0 ? "" : ", ", kProbeNames[p],
                 static_cast<unsigned long long>(calls[p]), total[p] * ns_per_tick,
                 self[p] * ns_per_tick);
  }
  std::fprintf(out, "}, \"counters\": {");
  for (int c = 0; c < kNumCounters; ++c) {
    std::fprintf(out, "%s\"%s\": %llu", c == 0 ? "" : ", ", kCounterNames[c],
                 static_cast<unsigned long long>(counters[c]));
  }
  std::fprintf(out, "}, \"cache\": ");
  if (g_cache_stats_seen) {
    std::fprintf(out, "{\"lookups\": %llu, \"hits\": %llu, \"misses\": %llu, \"evictions\": %llu}",
                 static_cast<unsigned long long>(g_cache_stats[0]),
                 static_cast<unsigned long long>(g_cache_stats[1]),
                 static_cast<unsigned long long>(g_cache_stats[2]),
                 static_cast<unsigned long long>(g_cache_stats[3]));
  } else {
    std::fprintf(out, "null");
  }
  std::fprintf(out, ", \"spans\": [");
  bool first = true;
  for (const ThreadBlock* block : *g_registry) {
    for (const LoggedSpan& span : block->spans) {
      std::fprintf(out, "%s\n{\"kind\": \"%s\", \"thread\": %llu, \"start_ns\": %llu, "
                   "\"end_ns\": %llu, \"arg\": %llu, \"self_ns\": %.1f, \"label\": ",
                   first ? "" : ",", span.kind, static_cast<unsigned long long>(block->tid),
                   static_cast<unsigned long long>(span.start_ns),
                   static_cast<unsigned long long>(span.end_ns),
                   static_cast<unsigned long long>(span.arg), span.self_ticks * ns_per_tick);
      JsonString(out, span.label);
      std::fputc('}', out);
      first = false;
    }
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
}

struct ExitWriter {
  ~ExitWriter() { WriteTrace(); }
} g_exit_writer;

unsigned EffectiveJobs(unsigned jobs) {
  if (jobs != 0) {
    return jobs;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace
}  // namespace wlbench

using namespace wlansim;  // NOLINT: the wrappers spell the program's types
using wlbench::Block;
using wlbench::Span;

// Runs one tracker call, crediting the signal records it scanned.
template <typename F>
auto TrackerCall(const InterferenceTracker* self, int probe, F&& call) {
  wlbench::ThreadBlock* block = Block();
  const uint64_t scanned = self->stats().signals_scanned;
  struct Credit {
    wlbench::ThreadBlock* block;
    const InterferenceTracker* self;
    uint64_t scanned;
    ~Credit() {
      block->counters[wlbench::kSignalsScanned] += self->stats().signals_scanned - scanned;
    }
  } credit{block, self, scanned};
  Span span(block, probe);
  return call();
}

extern "C" {

// ---- core: event kernel -------------------------------------------------

uint32_t __real__ZN7wlansim10EventQueue9AllocSlotEv(EventQueue* self);
uint32_t __wrap__ZN7wlansim10EventQueue9AllocSlotEv(EventQueue* self) {
  Span span(Block(), wlbench::kAllocSlot);
  return __real__ZN7wlansim10EventQueue9AllocSlotEv(self);
}

void __real__ZN7wlansim10EventQueue6SiftUpEm(EventQueue* self, size_t index);
void __wrap__ZN7wlansim10EventQueue6SiftUpEm(EventQueue* self, size_t index) {
  Span span(Block(), wlbench::kSiftUp);
  __real__ZN7wlansim10EventQueue6SiftUpEm(self, index);
}

void __real__ZN7wlansim10EventQueue10CancelSlotEjj(EventQueue* self, uint32_t slot,
                                                                 uint32_t generation);
void __wrap__ZN7wlansim10EventQueue10CancelSlotEjj(EventQueue* self, uint32_t slot,
                                                    uint32_t generation) {
  wlbench::ThreadBlock* block = Block();
  const size_t tombstones = self->TombstoneCount();
  const size_t heap = self->HeapSize();
  {
    Span span(block, wlbench::kCancelSlot);
    __real__ZN7wlansim10EventQueue10CancelSlotEjj(self, slot, generation);
  }
  // A live cancel adds a tombstone, or compacts the heap right after.
  if (self->TombstoneCount() != tombstones || self->HeapSize() != heap) {
    ++block->counters[wlbench::kCancelsEffective];
  }
}

Time __real__ZN7wlansim10EventQueue8NextTimeEv(EventQueue* self);
Time __wrap__ZN7wlansim10EventQueue8NextTimeEv(EventQueue* self) {
  Span span(Block(), wlbench::kNextTime);
  return __real__ZN7wlansim10EventQueue8NextTimeEv(self);
}

EventFn __real__ZN7wlansim10EventQueue7PopNextEPNS_4TimeE(EventQueue* self, Time* at);
EventFn __wrap__ZN7wlansim10EventQueue7PopNextEPNS_4TimeE(EventQueue* self, Time* at) {
  Span span(Block(), wlbench::kPopNext);
  return __real__ZN7wlansim10EventQueue7PopNextEPNS_4TimeE(self, at);
}

// ---- crypto: CRC-32 and cipher primitives -------------------------------

uint32_t
__real__ZN7wlansim5Crc32ESt4spanIKhLm18446744073709551615EE(std::span<const uint8_t> data);
uint32_t __wrap__ZN7wlansim5Crc32ESt4spanIKhLm18446744073709551615EE(
    std::span<const uint8_t> data) {
  wlbench::ThreadBlock* block = Block();
  block->counters[wlbench::kCrcBytes] += data.size();
  if (wlbench::TopProbe(block) == wlbench::kParseMpdu) {
    ++block->counters[wlbench::kFcsChecks];
  }
  Span span(block, wlbench::kCrc32);
  return __real__ZN7wlansim5Crc32ESt4spanIKhLm18446744073709551615EE(data);
}

void __real__ZN7wlansim12Crc32Builder6UpdateESt4spanIKhLm18446744073709551615EE(
    Crc32Builder* self, std::span<const uint8_t> data);
void __wrap__ZN7wlansim12Crc32Builder6UpdateESt4spanIKhLm18446744073709551615EE(
    Crc32Builder* self, std::span<const uint8_t> data) {
  wlbench::ThreadBlock* block = Block();
  block->counters[wlbench::kCrcBytes] += data.size();
  Span span(block, wlbench::kCrcUpdate);
  __real__ZN7wlansim12Crc32Builder6UpdateESt4spanIKhLm18446744073709551615EE(self, data);
}

std::vector<uint8_t>
__real__ZNK7wlansim3Ccm7EncryptESt4spanIKhLm18446744073709551615EES3_S1_IhLm18446744073709551615EE(
    const Ccm* self, std::span<const uint8_t> nonce, std::span<const uint8_t> aad,
    std::span<uint8_t> payload);
std::vector<uint8_t>
__wrap__ZNK7wlansim3Ccm7EncryptESt4spanIKhLm18446744073709551615EES3_S1_IhLm18446744073709551615EE(
    const Ccm* self, std::span<const uint8_t> nonce, std::span<const uint8_t> aad,
    std::span<uint8_t> payload) {
  Span span(Block(), wlbench::kCcmEncrypt);
  return __real__ZNK7wlansim3Ccm7EncryptESt4spanIKhLm18446744073709551615EES3_S1_IhLm18446744073709551615EE(
      self, nonce, aad, payload);
}

bool
__real__ZNK7wlansim3Ccm7DecryptESt4spanIKhLm18446744073709551615EES3_S1_IhLm18446744073709551615EES3_(
    const Ccm* self, std::span<const uint8_t> nonce, std::span<const uint8_t> aad,
    std::span<uint8_t> payload, std::span<const uint8_t> mic);
bool __wrap__ZNK7wlansim3Ccm7DecryptESt4spanIKhLm18446744073709551615EES3_S1_IhLm18446744073709551615EES3_(
    const Ccm* self, std::span<const uint8_t> nonce, std::span<const uint8_t> aad,
    std::span<uint8_t> payload, std::span<const uint8_t> mic) {
  Span span(Block(), wlbench::kCcmDecrypt);
  return __real__ZNK7wlansim3Ccm7DecryptESt4spanIKhLm18446744073709551615EES3_S1_IhLm18446744073709551615EES3_(
      self, nonce, aad, payload, mic);
}

void __real__ZN7wlansim3Rc4C1ESt4spanIKhLm18446744073709551615EE(
    void* self, std::span<const uint8_t> key);
void __wrap__ZN7wlansim3Rc4C1ESt4spanIKhLm18446744073709551615EE(void* self,
                                                                   std::span<const uint8_t> key) {
  Span span(Block(), wlbench::kRc4Init);
  __real__ZN7wlansim3Rc4C1ESt4spanIKhLm18446744073709551615EE(self, key);
}

void __real__ZN7wlansim3Rc47ProcessESt4spanIhLm18446744073709551615EE(
    void* self, std::span<uint8_t> data);
void __wrap__ZN7wlansim3Rc47ProcessESt4spanIhLm18446744073709551615EE(void* self,
                                                                        std::span<uint8_t> data) {
  Span span(Block(), wlbench::kRc4Process);
  __real__ZN7wlansim3Rc47ProcessESt4spanIhLm18446744073709551615EE(self, data);
}

void __real__ZN7wlansim3Rc44SkipEm(void* self, size_t n);
void __wrap__ZN7wlansim3Rc44SkipEm(void* self, size_t n) {
  Span span(Block(), wlbench::kRc4Skip);
  __real__ZN7wlansim3Rc44SkipEm(self, n);
}

using MicBytes = std::array<uint8_t, 8>;

MicBytes __real__ZN7wlansim7Michael7ComputeESt4spanIKhLm8EES1_IS2_Lm18446744073709551615EE(
    std::span<const uint8_t, 8> key, std::span<const uint8_t> data);
MicBytes __wrap__ZN7wlansim7Michael7ComputeESt4spanIKhLm8EES1_IS2_Lm18446744073709551615EE(
    std::span<const uint8_t, 8> key, std::span<const uint8_t> data) {
  Span span(Block(), wlbench::kMichael);
  return __real__ZN7wlansim7Michael7ComputeESt4spanIKhLm8EES1_IS2_Lm18446744073709551615EE(key, data);
}

MicBytes
__real__ZN7wlansim7Michael14ComputeForMsduESt4spanIKhLm8EERKNS_10MacAddressES6_hS1_IS2_Lm18446744073709551615EE(
    std::span<const uint8_t, 8> key, const MacAddress& da, const MacAddress& sa, uint8_t priority,
    std::span<const uint8_t> payload);
MicBytes
__wrap__ZN7wlansim7Michael14ComputeForMsduESt4spanIKhLm8EERKNS_10MacAddressES6_hS1_IS2_Lm18446744073709551615EE(
    std::span<const uint8_t, 8> key, const MacAddress& da, const MacAddress& sa, uint8_t priority,
    std::span<const uint8_t> payload) {
  Span span(Block(), wlbench::kMichaelMsdu);
  return __real__ZN7wlansim7Michael14ComputeForMsduESt4spanIKhLm8EERKNS_10MacAddressES6_hS1_IS2_Lm18446744073709551615EE(
      key, da, sa, priority, payload);
}

using Ttak = std::array<uint16_t, 5>;
using Rc4Key = std::array<uint8_t, 16>;

Ttak __real__ZN7wlansim9TkipMixer6Phase1ESt4spanIKhLm16EERKNS_10MacAddressEj(
    std::span<const uint8_t, 16> tk, const MacAddress& ta, uint32_t iv32);
Ttak __wrap__ZN7wlansim9TkipMixer6Phase1ESt4spanIKhLm16EERKNS_10MacAddressEj(
    std::span<const uint8_t, 16> tk, const MacAddress& ta, uint32_t iv32) {
  Span span(Block(), wlbench::kTkipPhase1);
  return __real__ZN7wlansim9TkipMixer6Phase1ESt4spanIKhLm16EERKNS_10MacAddressEj(tk, ta, iv32);
}

Rc4Key __real__ZN7wlansim9TkipMixer6Phase2ERKSt5arrayItLm5EESt4spanIKhLm16EEt(
    const Ttak& ttak, std::span<const uint8_t, 16> tk, uint16_t iv16);
Rc4Key __wrap__ZN7wlansim9TkipMixer6Phase2ERKSt5arrayItLm5EESt4spanIKhLm16EEt(
    const Ttak& ttak, std::span<const uint8_t, 16> tk, uint16_t iv16) {
  Span span(Block(), wlbench::kTkipPhase2);
  return __real__ZN7wlansim9TkipMixer6Phase2ERKSt5arrayItLm5EESt4spanIKhLm16EEt(ttak, tk, iv16);
}

// ---- mac: frame codec ----------------------------------------------------

Packet
__real__ZN7wlansim9BuildMpduERKNS_9MacHeaderESt4spanIKhLm18446744073709551615EENS_10PacketMetaE(
    const MacHeader& header, std::span<const uint8_t> body, PacketMeta meta);
Packet __wrap__ZN7wlansim9BuildMpduERKNS_9MacHeaderESt4spanIKhLm18446744073709551615EENS_10PacketMetaE(
    const MacHeader& header, std::span<const uint8_t> body, PacketMeta meta) {
  Span span(Block(), wlbench::kBuildMpdu);
  return __real__ZN7wlansim9BuildMpduERKNS_9MacHeaderESt4spanIKhLm18446744073709551615EENS_10PacketMetaE(
      header, body, meta);
}

std::optional<MacHeader> __real__ZN7wlansim9ParseMpduERNS_6PacketE(Packet& packet);
std::optional<MacHeader> __wrap__ZN7wlansim9ParseMpduERNS_6PacketE(Packet& packet) {
  Span span(Block(), wlbench::kParseMpdu);
  return __real__ZN7wlansim9ParseMpduERNS_6PacketE(packet);
}

// ---- phy: channel fan-out and interference tracker -----------------------

void __real__ZN7wlansim7Channel4SendEPNS_11RadioDeviceERKNS_6PacketERKNS_12SignalParamsE(
    Channel* self, RadioDevice* sender, const Packet& packet, const SignalParams& signal);
void __wrap__ZN7wlansim7Channel4SendEPNS_11RadioDeviceERKNS_6PacketERKNS_12SignalParamsE(
    Channel* self, RadioDevice* sender, const Packet& packet, const SignalParams& signal) {
  wlbench::ThreadBlock* block = Block();
  const Channel::SendStats send_before = self->send_stats();
  const Channel::CacheStats cache_before = self->cache_stats();
  {
    Span span(block, wlbench::kChannelSend);
    __real__ZN7wlansim7Channel4SendEPNS_11RadioDeviceERKNS_6PacketERKNS_12SignalParamsE(
        self, sender, packet, signal);
  }
  const Channel::SendStats& send_after = self->send_stats();
  const Channel::CacheStats& cache_after = self->cache_stats();
  block->counters[wlbench::kSendOffers] += send_after.offers - send_before.offers;
  block->counters[wlbench::kSendCandidates] +=
      send_after.candidates_visited - send_before.candidates_visited;
  block->counters[wlbench::kLinkHits] += cache_after.hits - cache_before.hits;
  block->counters[wlbench::kLinkMisses] += cache_after.misses - cache_before.misses;
}

uint64_t __real__ZN7wlansim19InterferenceTracker9AddSignalENS_4TimeES1_d(
    InterferenceTracker* self, Time start, Time end, double power_w);
uint64_t __wrap__ZN7wlansim19InterferenceTracker9AddSignalENS_4TimeES1_d(InterferenceTracker* self,
                                                                      Time start, Time end,
                                                                      double power_w) {
  return TrackerCall(self, wlbench::kAddSignal, [&] {
    return __real__ZN7wlansim19InterferenceTracker9AddSignalENS_4TimeES1_d(self, start, end,
                                                                          power_w);
  });
}

double __real__ZNK7wlansim19InterferenceTracker11TotalPowerWENS_4TimeE(
    const InterferenceTracker* self, Time t);
double __wrap__ZNK7wlansim19InterferenceTracker11TotalPowerWENS_4TimeE(
    const InterferenceTracker* self, Time t) {
  return TrackerCall(self, wlbench::kTotalPower, [&] {
    return __real__ZNK7wlansim19InterferenceTracker11TotalPowerWENS_4TimeE(self, t);
  });
}

Time __real__ZNK7wlansim19InterferenceTracker18TimeWhenPowerBelowENS_4TimeEd(
    const InterferenceTracker* self, Time t, double threshold_w);
Time __wrap__ZNK7wlansim19InterferenceTracker18TimeWhenPowerBelowENS_4TimeEd(
    const InterferenceTracker* self, Time t, double threshold_w) {
  return TrackerCall(self, wlbench::kTimeBelow, [&] {
    return __real__ZNK7wlansim19InterferenceTracker18TimeWhenPowerBelowENS_4TimeEd(self, t,
                                                                                  threshold_w);
  });
}

using Plan = InterferenceTracker::ReceptionPlan;

double
__real__ZNK7wlansim19InterferenceTracker18SuccessProbabilityERKNS0_13ReceptionPlanERKNS_14ErrorRateModelE(
    const InterferenceTracker* self, const Plan& plan, const ErrorRateModel& model);
double
__wrap__ZNK7wlansim19InterferenceTracker18SuccessProbabilityERKNS0_13ReceptionPlanERKNS_14ErrorRateModelE(
    const InterferenceTracker* self, const Plan& plan, const ErrorRateModel& model) {
  return TrackerCall(self, wlbench::kSuccessProbability, [&] {
    return __real__ZNK7wlansim19InterferenceTracker18SuccessProbabilityERKNS0_13ReceptionPlanERKNS_14ErrorRateModelE(
        self, plan, model);
  });
}

double __real__ZNK7wlansim19InterferenceTracker8MeanSinrERKNS0_13ReceptionPlanE(
    const InterferenceTracker* self, const Plan& plan);
double __wrap__ZNK7wlansim19InterferenceTracker8MeanSinrERKNS0_13ReceptionPlanE(
    const InterferenceTracker* self, const Plan& plan) {
  return TrackerCall(self, wlbench::kMeanSinr, [&] {
    return __real__ZNK7wlansim19InterferenceTracker8MeanSinrERKNS0_13ReceptionPlanE(self, plan);
  });
}

InterferenceTracker::ReceptionStats
__real__ZNK7wlansim19InterferenceTracker17EvaluateReceptionERKNS0_13ReceptionPlanERKNS_14ErrorRateModelE(
    const InterferenceTracker* self, const Plan& plan, const ErrorRateModel& model);
InterferenceTracker::ReceptionStats
__wrap__ZNK7wlansim19InterferenceTracker17EvaluateReceptionERKNS0_13ReceptionPlanERKNS_14ErrorRateModelE(
    const InterferenceTracker* self, const Plan& plan, const ErrorRateModel& model) {
  return TrackerCall(self, wlbench::kEvaluateReception, [&] {
    return __real__ZNK7wlansim19InterferenceTracker17EvaluateReceptionERKNS0_13ReceptionPlanERKNS_14ErrorRateModelE(
        self, plan, model);
  });
}

void __real__ZN7wlansim19InterferenceTracker7CleanupENS_4TimeE(
    InterferenceTracker* self, Time before);
void __wrap__ZN7wlansim19InterferenceTracker7CleanupENS_4TimeE(InterferenceTracker* self,
                                                               Time before) {
  TrackerCall(self, wlbench::kCleanup, [&] {
    __real__ZN7wlansim19InterferenceTracker7CleanupENS_4TimeE(self, before);
  });
}

// ---- runner: campaigns, replications, result pipeline --------------------

// A replication runs between the worker's SubstreamSeed call for it and the
// MetricRecorder::Finish call that folds its record.
uint64_t __real__ZN7wlansim13SubstreamSeedEmSt17basic_string_viewIcSt11char_traitsIcEEm(
    uint64_t root_seed, std::string_view stream, uint64_t index);
uint64_t __wrap__ZN7wlansim13SubstreamSeedEmSt17basic_string_viewIcSt11char_traitsIcEEm(
    uint64_t root_seed, std::string_view stream, uint64_t index) {
  Block()->rep_start_ns = wlbench::MonoNs();
  return __real__ZN7wlansim13SubstreamSeedEmSt17basic_string_viewIcSt11char_traitsIcEEm(
      root_seed, stream, index);
}

ReplicationRecord __real__ZNK7wlansim14MetricRecorder6FinishEmRKNS_17ReplicationResultE(
    const MetricRecorder* self, uint64_t replication, const ReplicationResult& returned);
ReplicationRecord __wrap__ZNK7wlansim14MetricRecorder6FinishEmRKNS_17ReplicationResultE(
    const MetricRecorder* self, uint64_t replication, const ReplicationResult& returned) {
  wlbench::ThreadBlock* block = Block();
  if (block->rep_start_ns != 0) {
    block->spans.push_back({"rep", block->rep_start_ns, wlbench::MonoNs(), replication, 0, ""});
    block->rep_start_ns = 0;
  }
  return __real__ZNK7wlansim14MetricRecorder6FinishEmRKNS_17ReplicationResultE(self, replication,
                                                                              returned);
}

CampaignResult __real__ZN7wlansim11RunCampaignERKNS_15CampaignOptionsE(
    const CampaignOptions& options);
CampaignResult __wrap__ZN7wlansim11RunCampaignERKNS_15CampaignOptionsE(
    const CampaignOptions& options) {
  wlbench::ThreadBlock* block = Block();
  const uint64_t start = wlbench::MonoNs();
  Span span(block, wlbench::kRunCampaign);
  CampaignResult result = __real__ZN7wlansim11RunCampaignERKNS_15CampaignOptionsE(options);
  span.Close();
  block->spans.push_back(
      {"campaign", start, wlbench::MonoNs(), wlbench::EffectiveJobs(options.jobs), 0, ""});
  return result;
}

SweepResult __real__ZN7wlansim16RunSweepCampaignERKNS_12SweepOptionsE(
    const SweepOptions& options);
SweepResult __wrap__ZN7wlansim16RunSweepCampaignERKNS_12SweepOptionsE(
    const SweepOptions& options) {
  wlbench::ThreadBlock* block = Block();
  const uint64_t start = wlbench::MonoNs();
  Span span(block, wlbench::kRunSweep);
  SweepResult result = __real__ZN7wlansim16RunSweepCampaignERKNS_12SweepOptionsE(options);
  span.Close();
  block->spans.push_back(
      {"campaign", start, wlbench::MonoNs(), wlbench::EffectiveJobs(options.jobs), 0, ""});
  return result;
}

void __real__ZN7wlansim14ResultPipeline7DeliverENS_17ReplicationRecordE(
    ResultPipeline* self, ReplicationRecord record);
void __wrap__ZN7wlansim14ResultPipeline7DeliverENS_17ReplicationRecordE(ResultPipeline* self,
                                                                       ReplicationRecord record) {
  Span span(Block(), wlbench::kPipelineDeliver);
  __real__ZN7wlansim14ResultPipeline7DeliverENS_17ReplicationRecordE(self, std::move(record));
}

void __real__ZN7wlansim14ResultPipeline3EndEv(ResultPipeline* self);
void __wrap__ZN7wlansim14ResultPipeline3EndEv(ResultPipeline* self) {
  Span span(Block(), wlbench::kPipelineEnd);
  __real__ZN7wlansim14ResultPipeline3EndEv(self);
}

// ---- results: WLSR encode, verify and decode -----------------------------

void __real__ZN7wlansim17EncodeScalarChunkERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPKdm(
    std::string& out, const double* values, size_t n);
void __wrap__ZN7wlansim17EncodeScalarChunkERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPKdm(
    std::string& out, const double* values, size_t n) {
  Span span(Block(), wlbench::kEncodeScalar);
  __real__ZN7wlansim17EncodeScalarChunkERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPKdm(
      out, values, n);
}

void __real__ZN7wlansim14EncodeU64ChunkERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPKmm(
    std::string& out, const uint64_t* values, size_t n);
void __wrap__ZN7wlansim14EncodeU64ChunkERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPKmm(
    std::string& out, const uint64_t* values, size_t n) {
  Span span(Block(), wlbench::kEncodeU64);
  __real__ZN7wlansim14EncodeU64ChunkERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPKmm(
      out, values, n);
}

void __real__ZN7wlansim10EncodeBinsERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPKmm(
    std::string& out, const uint64_t* bins, size_t n);
void __wrap__ZN7wlansim10EncodeBinsERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPKmm(
    std::string& out, const uint64_t* bins, size_t n) {
  Span span(Block(), wlbench::kEncodeBins);
  __real__ZN7wlansim10EncodeBinsERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPKmm(out, bins,
                                                                                          n);
}

void __real__ZN7wlansim16EncodeFileHeaderERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_16BinaryFileHeaderE(
    std::string& out, const BinaryFileHeader& header);
void __wrap__ZN7wlansim16EncodeFileHeaderERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_16BinaryFileHeaderE(
    std::string& out, const BinaryFileHeader& header) {
  Span span(Block(), wlbench::kEncodeFileHeader);
  __real__ZN7wlansim16EncodeFileHeaderERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_16BinaryFileHeaderE(
      out, header);
}

void __real__ZN7wlansim17EncodeGroupHeaderERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_17BinaryGroupHeaderE(
    std::string& out, const BinaryGroupHeader& header);
void __wrap__ZN7wlansim17EncodeGroupHeaderERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_17BinaryGroupHeaderE(
    std::string& out, const BinaryGroupHeader& header) {
  Span span(Block(), wlbench::kEncodeGroupHeader);
  __real__ZN7wlansim17EncodeGroupHeaderERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_17BinaryGroupHeaderE(
      out, header);
}

BinaryResultsFile
__real__ZN7wlansim21ReadBinaryResultsFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    const std::string& path);
BinaryResultsFile
__wrap__ZN7wlansim21ReadBinaryResultsFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    const std::string& path) {
  Span span(Block(), wlbench::kReadFile);
  return __real__ZN7wlansim21ReadBinaryResultsFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
      path);
}

void __real__ZN7wlansim16ReadScalarColumnERKNS_11BinaryGroupEmPSt6vectorIdSaIdEE(
    const BinaryGroup& group, size_t column, std::vector<double>* out);
void __wrap__ZN7wlansim16ReadScalarColumnERKNS_11BinaryGroupEmPSt6vectorIdSaIdEE(
    const BinaryGroup& group, size_t column, std::vector<double>* out) {
  Span span(Block(), wlbench::kReadScalar);
  __real__ZN7wlansim16ReadScalarColumnERKNS_11BinaryGroupEmPSt6vectorIdSaIdEE(group, column, out);
}

void
__real__ZN7wlansim14ReadDistColumnERKNS_11BinaryGroupEmPSt6vectorINS_20DistributionSnapshotESaIS4_EE(
    const BinaryGroup& group, size_t dist, std::vector<DistributionSnapshot>* out);
void __wrap__ZN7wlansim14ReadDistColumnERKNS_11BinaryGroupEmPSt6vectorINS_20DistributionSnapshotESaIS4_EE(
    const BinaryGroup& group, size_t dist, std::vector<DistributionSnapshot>* out) {
  Span span(Block(), wlbench::kReadDist);
  __real__ZN7wlansim14ReadDistColumnERKNS_11BinaryGroupEmPSt6vectorINS_20DistributionSnapshotESaIS4_EE(
      group, dist, out);
}

// ---- query: catalog, engine, extent cache, server ------------------------

const CatalogFile&
__real__ZN7wlansim7Catalog12RegisterFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    Catalog* self, const std::string& path);
const CatalogFile&
__wrap__ZN7wlansim7Catalog12RegisterFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    Catalog* self, const std::string& path) {
  Span span(Block(), wlbench::kRegisterFile);
  return __real__ZN7wlansim7Catalog12RegisterFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
      self, path);
}

std::string
__real__ZN7wlansim11QueryEngine7ExecuteERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    QueryEngine* self, const std::string& query);
std::string
__wrap__ZN7wlansim11QueryEngine7ExecuteERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    QueryEngine* self, const std::string& query) {
  wlbench::ThreadBlock* block = Block();
  const uint64_t start = wlbench::MonoNs();
  struct Log {
    wlbench::ThreadBlock* block;
    Span span;
    uint64_t start;
    const std::string& query;
    ~Log() {
      const uint64_t self_ticks = span.Close();
      block->spans.push_back({"query", start, wlbench::MonoNs(), 0, self_ticks, wlbench::Verb(query)});
    }
  } log{block, Span(block, wlbench::kExecute), start, query};
  return __real__ZN7wlansim11QueryEngine7ExecuteERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
      self, query);
}

ColumnPtr __real__ZN7wlansim11ExtentCache15GetScalarColumnERKNS_8GroupRefEm(
    ExtentCache* self, const GroupRef& ref, size_t column);
ColumnPtr __wrap__ZN7wlansim11ExtentCache15GetScalarColumnERKNS_8GroupRefEm(ExtentCache* self,
                                                                          const GroupRef& ref,
                                                                          size_t column) {
  Span span(Block(), wlbench::kCacheGet);
  return __real__ZN7wlansim11ExtentCache15GetScalarColumnERKNS_8GroupRefEm(self, ref, column);
}

// The cache's own counters, read once serving has stopped.
void __real__ZN7wlansim11QueryServer4StopEv(QueryServer* self);
void __wrap__ZN7wlansim11QueryServer4StopEv(QueryServer* self) {
  __real__ZN7wlansim11QueryServer4StopEv(self);
  const ExtentCacheStats stats = self->cache().Stats();
  std::lock_guard<std::mutex> lock(wlbench::g_registry_mu);
  wlbench::g_cache_stats[0] = stats.lookups;
  wlbench::g_cache_stats[1] = stats.hits;
  wlbench::g_cache_stats[2] = stats.misses;
  wlbench::g_cache_stats[3] = stats.evictions;
  wlbench::g_cache_stats_seen = true;
}

}  // extern "C"
