// Micro-benchmarks of the compression codecs used by the dedicated
// cores (§IV-D). Reports throughput and the achieved ratio on a CM1-like
// smooth 3-D field, so the DamarisOptions::compression_rate used by the
// simulator can be sanity-checked against the real implementation.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "format/codec.hpp"
#include "format/crc32.hpp"
#include "format/pipeline.hpp"

namespace {

using namespace dmr;
using namespace dmr::format;

std::vector<std::byte> cm1_field_bytes(std::size_t nx, std::size_t ny,
                                       std::size_t nz) {
  // Smooth background + turbulent perturbations: real atmospheric fields
  // are not analytically smooth, and the mantissa noise is what keeps
  // gzip-class ratios near the paper's 187% rather than 600%+.
  dmr::Rng rng(1234);
  std::vector<float> f;
  f.reserve(nx * ny * nz);
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < ny; ++j) {
      for (std::size_t k = 0; k < nz; ++k) {
        const float base =
            300.0f + 10.0f * std::sin(0.05f * i) * std::cos(0.07f * j) +
            0.2f * static_cast<float>(k);
        // Turbulence only inside the active storm region; the rest of
        // the domain is quiescent (like CM1's environment-at-rest).
        const bool active = i > nx / 6 && j > ny / 8;
        f.push_back(active ? base + 0.2f * static_cast<float>(
                                          rng.normal(0, 1))
                           : base);
      }
    }
  }
  std::vector<std::byte> out(f.size() * 4);
  std::memcpy(out.data(), f.data(), out.size());
  return out;
}

void bench_codec(benchmark::State& state, CodecId id) {
  const Codec* codec = codec_for(id);
  auto input = cm1_field_bytes(44, 44, 50);  // one Kraken variable block
  std::size_t encoded_size = 0;
  for (auto _ : state) {
    auto enc = codec->encode(input);
    encoded_size = enc.size();
    benchmark::DoNotOptimize(enc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
  state.counters["ratio"] = static_cast<double>(input.size()) /
                            static_cast<double>(encoded_size);
}

void BM_EncodeRle(benchmark::State& s) { bench_codec(s, CodecId::kRle); }
void BM_EncodeLz(benchmark::State& s) { bench_codec(s, CodecId::kLz); }
void BM_EncodeXorDelta(benchmark::State& s) {
  bench_codec(s, CodecId::kXorDelta);
}
void BM_EncodeFloat16(benchmark::State& s) {
  bench_codec(s, CodecId::kFloat16);
}
BENCHMARK(BM_EncodeRle);
BENCHMARK(BM_EncodeLz);
BENCHMARK(BM_EncodeXorDelta);
BENCHMARK(BM_EncodeFloat16);

void bench_pipeline(benchmark::State& state, Pipeline p) {
  auto input = cm1_field_bytes(44, 44, 50);
  std::size_t encoded_size = 0;
  for (auto _ : state) {
    auto enc = p.encode(input);
    encoded_size = enc.data.size();
    benchmark::DoNotOptimize(enc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
  state.counters["ratio"] = static_cast<double>(input.size()) /
                            static_cast<double>(encoded_size);
}

// Paper: 187% lossless; ~600% with 16-bit precision reduction.
void BM_PipelineLossless(benchmark::State& s) {
  bench_pipeline(s, Pipeline::lossless());
}
void BM_PipelineVisualization(benchmark::State& s) {
  bench_pipeline(s, Pipeline::visualization());
}
BENCHMARK(BM_PipelineLossless);
BENCHMARK(BM_PipelineVisualization);

void BM_DecodeLossless(benchmark::State& state) {
  auto input = cm1_field_bytes(44, 44, 50);
  auto enc = Pipeline::lossless().encode(input);
  for (auto _ : state) {
    auto dec = Pipeline::decode(enc);
    benchmark::DoNotOptimize(dec);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_DecodeLossless);

// The DH5 payload checksum: every stored byte passes through it on the
// dedicated core and again on read-back. 8 KiB is an in-situ block,
// 8 MiB a checkpoint block (beyond L2, so memory bandwidth shows).
void BM_Crc32(benchmark::State& state) {
  dmr::Rng rng(99);
  std::vector<std::byte> input(static_cast<std::size_t>(state.range(0)));
  for (auto& b : input) b = static_cast<std::byte>(rng.next_below(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(input));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(8 << 10)->Arg(8 << 20);

}  // namespace

BENCHMARK_MAIN();
