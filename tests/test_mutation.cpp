// Mutation test over the trust boundaries: scenario JSON, policy snapshots
// and wire requests. From a fixed seed and a fixed count, each seed input is
// mutated by byte flips, deleted spans, truncations and hostile tokens
// spliced over a number ("-1", "18446744073709551616", "1e308", "1.5",
// "[]", "null"). Every mutant must either fail with a std::exception or
// load; a loaded scenario must also build its Simulator (or fail the same
// way), a loaded policy must instantiate(), and the request decoder must
// return an error code or kOk. Nothing may hang, crash or trip a sanitizer:
// ctest label fuzz, which the ASan+UBSan CI job runs.
//
// Loaded scenarios are never run. A valid 1e-300 ms inter-arrival
// legitimately asks for unbounded work; the event-queue and trace-horizon
// bounds have tests of their own (test_sim_engine, test_scenario).
// DOSC_SOURCE_DIR (a compile definition) locates scenarios/*.json.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/policy_io.hpp"
#include "serve/daemon.hpp"
#include "serve/wire.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace dosc {
namespace {

constexpr std::uint64_t kMutationSeed = 0x5EED2026;
constexpr std::size_t kScenarioMutants = 1000;  // per seed document
constexpr std::size_t kPolicyMutants = 2000;    // per seed snapshot
constexpr std::size_t kWireMutants = 4000;

constexpr const char* kTokens[] = {"-1", "18446744073709551616", "1e308", "1.5", "[]", "null"};

/// One to three stacked mutations of `bytes`.
std::string mutate(std::string bytes, util::Rng& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::int64_t rounds = rng.uniform_int(1, 3);
  for (std::int64_t r = 0; r < rounds && !bytes.empty(); ++r) {
    const std::size_t pos = pick(bytes.size());
    switch (rng.uniform_int(0, 3)) {
      case 0:  // byte flip
        bytes[pos] = static_cast<char>(bytes[pos] ^ static_cast<char>(rng.uniform_int(1, 255)));
        break;
      case 1:  // deleted span
        bytes.erase(pos, static_cast<std::size_t>(rng.uniform_int(1, 8)));
        break;
      case 2:  // truncation
        bytes.resize(pos);
        break;
      default: {  // token spliced over the number at or after pos
        std::size_t begin = bytes.find_first_of("-0123456789", pos);
        if (begin == std::string::npos) begin = pos;
        std::size_t end = bytes.find_first_not_of("+-.0123456789eE", begin);
        if (end == std::string::npos) end = bytes.size();
        bytes.replace(begin, end - begin, kTokens[pick(std::size(kTokens))]);
        break;
      }
    }
  }
  return bytes;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// Mutants of each seed that loaded, and that failed with a std::exception.
struct Tally {
  std::size_t loaded = 0;
  std::size_t rejected = 0;
};

/// Runs `count` mutants of every seed through `accepts`, which returns
/// normally for a mutant that loads and throws for one that does not.
template <typename Accepts>
Tally run_mutants(const std::vector<std::string>& seeds, std::size_t count, Accepts accepts) {
  util::Rng rng(kMutationSeed);
  Tally tally;
  for (const std::string& seed : seeds) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::string mutant = mutate(seed, rng);
      try {
        accepts(mutant);
        ++tally.loaded;
      } catch (const std::exception&) {
        ++tally.rejected;
      }
    }
  }
  return tally;
}

TEST(Mutation, ScenarioDocumentsFailNamedOrLoadAndBuild) {
  std::vector<std::string> seeds;
  const std::filesystem::path dir = std::filesystem::path(DOSC_SOURCE_DIR) / "scenarios";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") seeds.push_back(read_file(entry.path()));
  }
  ASSERT_GE(seeds.size(), 3u);
  seeds.push_back(sim::load_scenario("corpus:ft_k4_chain8").to_json().dump(2));

  const Tally tally = run_mutants(seeds, kScenarioMutants, [](const std::string& text) {
    const sim::Scenario scenario = sim::Scenario::from_json(util::Json::parse(text));
    const sim::Simulator simulator(scenario, 1);
  });
  std::printf("scenario mutants: %zu loaded, %zu rejected\n", tally.loaded, tally.rejected);
  EXPECT_GT(tally.loaded, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(Mutation, PolicySnapshotsFailNamedOrInstantiate) {
  const sim::Scenario scenario = sim::load_scenario("corpus:ft_k4_chain8");
  util::Json snapshot = core::to_json(serve::make_untrained_policy(scenario, 4, 11));
  const std::string current = snapshot.dump(2);
  // A legacy snapshot has no checksum, so mutated parameters and shape
  // fields reach the shape validation and instantiate() instead of being
  // stopped by the checksum.
  snapshot.as_object().erase("param_checksum");
  snapshot.as_object().erase("format_version");

  const Tally tally = run_mutants({current, snapshot.dump(2)}, kPolicyMutants,
                                  [](const std::string& text) {
                                    core::policy_from_json(util::Json::parse(text)).instantiate();
                                  });
  std::printf("policy mutants: %zu loaded, %zu rejected\n", tally.loaded, tally.rejected);
  EXPECT_GT(tally.loaded, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(Mutation, WireRequestsDecodeToACode) {
  serve::wire::Request request;
  request.request_id = 0x0123456789ABCDEFULL;
  request.cookie = 42;
  request.node = 3;
  request.egress = 7;
  request.chain_pos = 1;
  request.elapsed = 12.5f;
  std::string encoded(serve::wire::kRequestSize, '\0');
  serve::wire::encode_request(request, reinterpret_cast<std::uint8_t*>(encoded.data()));

  std::size_t by_code[5] = {0, 0, 0, 0, 0};
  util::Rng rng(kMutationSeed);
  for (std::size_t i = 0; i < kWireMutants; ++i) {
    const std::string mutant = mutate(encoded, rng);
    serve::wire::Request out;
    const serve::wire::DecodeError code = serve::wire::decode_request(
        reinterpret_cast<const std::uint8_t*>(mutant.data()), mutant.size(), out);
    const auto index = static_cast<std::size_t>(code);
    ASSERT_LT(index, std::size(by_code)) << "unknown decode result " << index;
    ++by_code[index];
  }
  std::printf("wire mutants: %zu ok, %zu too short, %zu bad length, %zu bad magic, "
              "%zu bad version\n",
              by_code[0], by_code[1], by_code[2], by_code[3], by_code[4]);
  EXPECT_GT(by_code[static_cast<std::size_t>(serve::wire::DecodeError::kOk)], 0u);
  EXPECT_GT(by_code[static_cast<std::size_t>(serve::wire::DecodeError::kTooShort)], 0u);
}

}  // namespace
}  // namespace dosc
