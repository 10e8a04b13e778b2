#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "nn/models.hpp"
#include "nn/serialize.hpp"

namespace ns::nn {
namespace {

/// The seed's stream reader, kept as the oracle for the one-pass reader:
/// every text must get its accept/refuse answer and its bits.
bool parameters_from_string_by_stream(Module& module, const std::string& text) {
  std::istringstream is(text);
  std::string magic;
  int version = 0;
  std::size_t count = 0;
  is >> magic >> version >> count;
  if (!is || magic != "nsweights" || version != 1) return false;

  const std::vector<Parameter*> params = module.parameters();
  if (count != params.size()) return false;

  // Parse into a staging area first so a mid-stream failure cannot leave
  // the module half-loaded.
  std::vector<Matrix> staged;
  staged.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    std::size_t rows = 0, cols = 0;
    is >> rows >> cols;
    if (!is || rows != params[k]->value.rows() ||
        cols != params[k]->value.cols()) {
      return false;
    }
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i) {
      float v = 0.0f;
      is >> v;
      if (!is) return false;
      m.data()[i] = v;
    }
    staged.push_back(std::move(m));
  }
  for (std::size_t k = 0; k < count; ++k) {
    params[k]->value = std::move(staged[k]);
    params[k]->zero_grad();
  }
  return true;
}

/// Parameters of fixed shapes, with distinct values and nonzero gradients,
/// so that a load (which zeroes gradients) and a refusal (which must touch
/// nothing) both show in `bits`.
class TinyModule final : public Module {
 public:
  explicit TinyModule(
      const std::vector<std::pair<std::size_t, std::size_t>>& shapes) {
    params_.reserve(shapes.size());
    float next = 7.0f;
    for (const auto& [rows, cols] : shapes) {
      Parameter& p = params_.emplace_back(Matrix(rows, cols));
      for (std::size_t i = 0; i < p.value.size(); ++i) {
        p.value.data()[i] = next;
        p.grad.data()[i] = 1.0f;
        next += 0.25f;
      }
    }
  }
  void collect_parameters(std::vector<Parameter*>& out) override {
    for (Parameter& p : params_) out.push_back(&p);
  }

 private:
  std::vector<Parameter> params_;
};

/// Every value and gradient bit of `module`, in parameter order.
std::vector<std::uint32_t> bits(Module& module) {
  std::vector<std::uint32_t> out;
  for (const Parameter* p : module.parameters()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      out.push_back(std::bit_cast<std::uint32_t>(p->value.data()[i]));
      out.push_back(std::bit_cast<std::uint32_t>(p->grad.data()[i]));
    }
  }
  return out;
}

/// `text` with its non-printing bytes escaped, for failure messages.
std::string shown(const std::string& text) {
  std::string out;
  char buf[8];
  for (const char c : text) {
    if (c >= ' ' && c <= '~') {
      out += c;
    } else {
      std::snprintf(buf, sizeof(buf), "\\x%02x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    }
  }
  return out;
}

/// Reads `text` with both readers into two fresh modules of `shapes`. Empty
/// when they agree (same answer and bits, an untouched module and a reason
/// on refusal), else what differs. `accepted` reports the answer.
std::string differs_from_stream(
    const std::vector<std::pair<std::size_t, std::size_t>>& shapes,
    const std::string& text, bool* accepted = nullptr) {
  TinyModule fast(shapes);
  TinyModule slow(shapes);
  const std::vector<std::uint32_t> before = bits(fast);
  std::string why;
  const bool got = parameters_from_string(fast, text, &why);
  const bool want = parameters_from_string_by_stream(slow, text);
  if (accepted != nullptr) *accepted = got;
  const std::string where = " on \"" + shown(text) + "\"";
  if (got != want) {
    return std::string(got ? "accepted" : "refused (" + why + ")") +
           " where the stream reader " + (want ? "accepts" : "refuses") +
           where;
  }
  if (bits(fast) != bits(slow)) return "different bits" + where;
  if (!got && bits(fast) != before) return "module changed on refusal" + where;
  if (!got && why.empty()) return "refusal without a reason" + where;
  return {};
}

const std::vector<std::pair<std::size_t, std::size_t>> kPair = {{1, 2}};

std::string pair_file(const std::string& values) {
  return "nsweights 1\n1\n1 2 " + values + "\n";
}

TEST(SerializeTest, RoundTripPreservesPredictions) {
  const GraphBatch g = GraphBatch::build(gen::random_ksat(12, 48, 3, 3));

  NeuroSelectConfig cfg;
  cfg.hidden_dim = 8;
  cfg.num_hgt_layers = 1;
  cfg.seed = 11;
  NeuroSelectModel trained(cfg);
  // Nudge the weights away from initialization so the round trip is
  // non-trivial.
  for (Parameter* p : trained.parameters()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      p->value.data()[i] += 0.01f * static_cast<float>(i % 7);
    }
  }
  const float expected = trained.predict_probability(g);

  const std::string blob = parameters_to_string(trained);
  cfg.seed = 99;  // different random init; weights must be fully restored
  NeuroSelectModel restored(cfg);
  ASSERT_NE(restored.predict_probability(g), expected);
  ASSERT_TRUE(parameters_from_string(restored, blob));
  EXPECT_FLOAT_EQ(restored.predict_probability(g), expected);
}

TEST(SerializeTest, RejectsArchitectureMismatch) {
  NeuroSelectConfig small;
  small.hidden_dim = 8;
  NeuroSelectConfig big;
  big.hidden_dim = 16;
  NeuroSelectModel a(small);
  NeuroSelectModel b(big);
  const std::string blob = parameters_to_string(a);
  std::string why;
  EXPECT_FALSE(parameters_from_string(b, blob, &why));
  EXPECT_NE(why.find("tensor 0 of"), std::string::npos) << why;
}

TEST(SerializeTest, RejectsGarbage) {
  NeuroSelectConfig cfg;
  cfg.hidden_dim = 8;
  NeuroSelectModel m(cfg);
  EXPECT_FALSE(parameters_from_string(m, ""));
  EXPECT_FALSE(parameters_from_string(m, "not a weights file"));
  EXPECT_FALSE(parameters_from_string(m, "nsweights 2\n0\n"));
  std::string truncated = parameters_to_string(m);
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(parameters_from_string(m, truncated));
}

TEST(SerializeTest, ReasonNamesTheTensorAndWhatWasFound) {
  TinyModule m({{1, 2}, {2, 1}});
  const auto reason = [&](const std::string& text) {
    std::string why;
    EXPECT_FALSE(parameters_from_string(m, text, &why)) << text;
    return why;
  };
  EXPECT_EQ(reason("p cnf 2 2\n1 2 0\n"),
            "expected the header 'nsweights 1', found 'p cnf 2 2'");
  EXPECT_EQ(reason("nsweights 2\n"),
            "expected nsweights version 1, found '2'");
  EXPECT_EQ(reason("nsweights 1\n3\n"), "expected 2 tensors, found '3'");
  EXPECT_EQ(reason("nsweights 1\n2\n1 2 0.5 0.25\n2 3 1 2\n"),
            "tensor 1 of 2: expected 1 columns, found '3 1 2'");
  EXPECT_EQ(reason("nsweights 1\n2\n1 2 0.5 nan\n"),
            "tensor 0 of 2, value 1 of 2: expected a finite float, found "
            "'nan'");
  EXPECT_EQ(reason("nsweights 1\n2\n1 2 0.5 0.25\n2 1 1"),
            "tensor 1 of 2, value 1 of 2: expected a finite float, found "
            "the end of the text");
}

// Every dialect case of the reader contract (serialize.hpp), each checked
// against the stream reader and pinned to its answer; `want_bits`, when
// given, pins the two values.
TEST(SerializeTest, DialectMatchesStreamReader) {
  struct Case {
    std::string text;
    bool accepted;
    std::vector<std::uint32_t> want_bits;
  };
  const std::vector<Case> cases = {
      {pair_file("+1 2"), true, {0x3f800000, 0x40000000}},
      {pair_file("+-1 2"), false, {}},
      {pair_file("-+1 2"), false, {}},
      {pair_file("-0 0"), true, {0x80000000, 0x00000000}},
      {pair_file(".5 5."), true, {0x3f000000, 0x40a00000}},
      {pair_file("1E5 00012"), true, {0x47c35000, 0x41400000}},
      {pair_file("-.5 +.5"), true, {0xbf000000, 0x3f000000}},
      {pair_file("5.e3 0.e5"), true, {0x459c4000, 0x00000000}},
      {pair_file("inf 1"), false, {}},
      {pair_file("-inf 1"), false, {}},
      {pair_file("nan 1"), false, {}},
      {pair_file("INF 1"), false, {}},
      {pair_file("Infinity 1"), false, {}},
      {pair_file("1 NaN"), false, {}},
      {pair_file("1e39 1"), false, {}},
      {pair_file("3.4028236e38 1"), false, {}},
      {pair_file("1 -3.4028236e38"), false, {}},
      {pair_file("3.4028235e38 -3.4028235e38"), true, {0x7f7fffff, 0xff7fffff}},
      {pair_file("1e-40 1.4e-45"), true, {0x000116c2, 0x00000001}},
      {pair_file("8e-46 -1.4e-45"), true, {0x00000001, 0x80000001}},
      {pair_file("1e-46 -1e-50"), true, {0x00000000, 0x80000000}},
      {pair_file("1e-99999999999999999999 0e99999999999999999999"),
       true,
       {0x00000000, 0x00000000}},
      {pair_file("1e99999999999999999999 1"), false, {}},
      {pair_file("1.5e 1"), false, {}},
      {pair_file("1e 1"), false, {}},
      {pair_file("1e+ 1"), false, {}},
      {pair_file("1 1e-"), false, {}},
      {pair_file(".e5 1"), false, {}},
      {pair_file(". 1"), false, {}},
      {pair_file("- 1"), false, {}},
      {pair_file("0.5-0.25"), true, {0x3f000000, 0xbe800000}},
      {pair_file("1.2.5"), true, {0x3f99999a, 0x3f000000}},
      {pair_file("1e5e3 1"), false, {}},
      {pair_file("1 1e5e3"), true, {0x3f800000, 0x47c35000}},
      {pair_file("1,5 2"), false, {}},
      {pair_file("1 1,5"), true, {0x3f800000, 0x3f800000}},
      {pair_file("0x10 1"), false, {}},
      {pair_file("1 0x10"), true, {0x3f800000, 0x00000000}},
      {pair_file("1 2 trailing words, inf, nan"), true, {}},
      {pair_file("1\v2"), true, {}},
      {"\t\r\n nsweights\f1\v1\r1\t2 1 2", true, {}},
      {"nsweights1\n1\n1 2 1 2\n", false, {}},
      {"nsweights +1\n+1\n+1 +2 1 2\n", true, {}},
      {"nsweights 01\n001\n01 02 1 2\n", true, {}},
      {"nsweights -1\n1\n1 2 1 2\n", false, {}},
      {"nsweights -18446744073709551615\n1\n1 2 1 2\n", false, {}},
      {"nsweights 1.0\n1\n1 2 1 2\n", false, {}},
      {"nsweights 1\n-1\n1 2 1 2\n", false, {}},
      {"nsweights 1\n1\n-1 2 1 2\n", false, {}},
      {"nsweights 1\n1\n1 -18446744073709551614 1 2\n", true, {}},
      {"nsweights 1\n1\n1 18446744073709551618 1 2\n", false, {}},
      {"nsweights 1\n1\n1 +-2 1 2\n", false, {}},
      {"nsweights 1\n1\n1 2.0 1 2\n", true, {0x00000000, 0x3f800000}},
      {"nsweights 1\n1\n1 2", false, {}},
      {"nsweights 1\n1\n1 2 1", false, {}},
      {"NSWEIGHTS 1\n1\n1 2 1 2\n", false, {}},
  };
  for (const Case& c : cases) {
    bool accepted = false;
    ASSERT_EQ(differs_from_stream(kPair, c.text, &accepted), "");
    EXPECT_EQ(accepted, c.accepted) << shown(c.text);
    if (!c.want_bits.empty()) {
      TinyModule m(kPair);
      ASSERT_TRUE(parameters_from_string(m, c.text));
      const float* v = m.parameters()[0]->value.data();
      EXPECT_EQ(std::bit_cast<std::uint32_t>(v[0]), c.want_bits[0])
          << shown(c.text);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(v[1]), c.want_bits[1])
          << shown(c.text);
    }
  }
}

/// A random file over the reader's alphabet: digits, signs, '.', 'e'/'E',
/// "inf", "nan", "0x", ',', every C-locale blank and the header words. It is
/// shaped like a weights file for `shapes`, and a per-file noise level sets
/// how often a token is malformed, so both answers are common.
std::string token_soup(
    const std::vector<std::pair<std::size_t, std::size_t>>& shapes,
    std::mt19937_64& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto chance = [&](std::size_t percent) { return pick(100) < percent; };
  const std::size_t noise = std::array<std::size_t, 4>{0, 1, 4, 8}[pick(4)];
  const auto bad = [&](std::size_t percent) {
    return chance(percent * noise / 4);
  };
  const auto digits = [&](std::size_t n) {
    std::string s;
    for (std::size_t i = 0; i < n; ++i) s += static_cast<char>('0' + pick(10));
    return s;
  };
  const char* const blanks[] = {" ", "\t", "\n", "\v", "\f", "\r"};
  const auto gap = [&] {
    if (bad(4)) return std::string();  // tokens abut
    if (bad(3)) return std::string(",");
    std::string s = blanks[pick(6)];
    while (chance(25)) s += blanks[pick(6)];
    return s;
  };
  const auto count = [&](std::size_t n) {
    const std::string v = std::to_string(n);
    if (chance(10)) return chance(50) ? '+' + v : "00" + v;
    if (!bad(15)) return v;
    const std::string forms[] = {'-' + v,
                                 std::to_string(n + 1),
                                 v + ".0",
                                 std::string("+-") + v,
                                 "18446744073709551616",
                                 std::string("0x") + v,
                                 ""};
    return forms[pick(std::size(forms))];
  };
  const auto value = [&] {
    const std::string junk[] = {"inf", "nan", "-inf", "Infinity", "0x1f",
                                "0x",  ",",   "e5",   ".",        "+",
                                "-",   "E",   "nsweights"};
    if (bad(6)) return junk[pick(std::size(junk))];
    const std::string signs[] = {"", "", "", "-", "+"};
    std::string s = bad(5) ? (chance(50) ? "+-" : "--")
                           : signs[pick(std::size(signs))];
    const bool whole = !chance(15);
    if (whole) s += digits(chance(5) ? 12 + pick(20) : 1 + pick(3));
    if (!whole || chance(50)) {
      s += '.';
      s += digits((whole && chance(10)) || bad(10) ? 0
                  : chance(5)                      ? 12 + pick(30)
                                                   : 1 + pick(4));
    }
    if (chance(25)) {
      s += chance(50) ? "e" : "E";
      const std::string exps[] = {"0",   "5",   "-5",  "+3",  "017", "38",
                                  "39",  "-40", "-45", "-46", "-50",
                                  "-99999999999999999999"};
      s += bad(20) ? std::string(chance(50) ? "" : "-")
                   : exps[pick(std::size(exps))];
    }
    return s;
  };

  std::string text;
  if (chance(5)) text += blanks[pick(6)];
  const std::string magics[] = {"nsweight", "NSWEIGHTS", "nsweights1",
                                "nsweights,"};
  text += bad(10) ? magics[pick(std::size(magics))] : "nsweights";
  text += gap() + count(1) + gap() + count(shapes.size());
  for (const auto& [rows, cols] : shapes) {
    text += gap() + count(rows) + gap() + count(cols);
    std::size_t n = rows * cols;
    if (bad(5)) n = chance(50) ? n + 1 : n - 1;
    for (std::size_t i = 0; i < n; ++i) text += gap() + value();
  }
  if (chance(20)) text += gap() + value() + gap() + "nsweights";
  return text;
}

TEST(SerializeTest, TokenSoupsMatchStreamReader) {
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {{1, 3},
                                                                   {2, 2}};
  std::mt19937_64 rng(20261020);
  int accepted_count = 0;
  constexpr int kSoups = 4000;
  for (int i = 0; i < kSoups; ++i) {
    const std::string text = token_soup(shapes, rng);
    bool accepted = false;
    ASSERT_EQ(differs_from_stream(shapes, text, &accepted), "")
        << "soup " << i;
    accepted_count += accepted ? 1 : 0;
  }
  // Both answers must be well represented for the soup to mean anything.
  EXPECT_GT(accepted_count, kSoups / 10);
  EXPECT_LT(accepted_count, kSoups * 9 / 10);
}

TEST(SerializeTest, ByteMutationsOfAWrittenModelMatchStreamReader) {
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {2, 3}, {1, 4}, {3, 1}};
  TinyModule source(shapes);
  const float special[] = {-0.0f, 1e-40f, -1.4e-45f, 3.4028235e38f,
                           -1.17549435e-38f, 123456.789f};
  std::size_t j = 0;
  for (Parameter* p : source.parameters()) {
    for (std::size_t i = 0; i < p->value.size(); ++i, ++j) {
      p->value.data()[i] = j < std::size(special)
                               ? special[j]
                               : std::ldexp(static_cast<float>(j) - 6.5f,
                                            static_cast<int>(j) - 10);
    }
  }
  const std::string text = parameters_to_string(source);
  ASSERT_EQ(differs_from_stream(shapes, text), "");

  std::mt19937_64 rng(7);
  for (std::size_t pos = 0; pos < text.size(); ++pos) {
    std::vector<std::string> variants;
    for (int round = 0; round < 3; ++round) {
      std::string flipped = text;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 + rng() % 255));
      variants.push_back(std::move(flipped));
    }
    variants.push_back(text.substr(0, pos) + text.substr(pos + 1));
    variants.push_back(text.substr(0, pos + 1) + text.substr(pos));
    variants.push_back(text.substr(0, pos));
    for (const std::string& v : variants) {
      ASSERT_EQ(differs_from_stream(shapes, v), "") << "at byte " << pos;
    }
  }
}

TEST(SerializeTest, CheckedInModelLoadsToTheStreamReadersBits) {
  const std::string path = NS_PERFBENCH_MODEL;
  NeuroSelectModel fast;
  NeuroSelectModel slow;
  std::string why;
  ASSERT_TRUE(load_parameters(fast, path, &why)) << why;
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  ASSERT_TRUE(parameters_from_string_by_stream(slow, text.str()));
  EXPECT_EQ(bits(fast), bits(slow));
}

TEST(SerializeTest, FileRoundTrip) {
  GinModel model(8, 2, 5);
  const std::string path = ::testing::TempDir() + "/gin_weights.txt";
  ASSERT_TRUE(save_parameters(model, path));
  GinModel other(8, 2, 6);
  EXPECT_TRUE(load_parameters(other, path));
  const GraphBatch g = GraphBatch::build(gen::pigeonhole(4, 3));
  EXPECT_FLOAT_EQ(model.predict_probability(g),
                  other.predict_probability(g));
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileFails) {
  GinModel model(8, 2, 5);
  std::string why;
  EXPECT_FALSE(load_parameters(model, "/nonexistent/weights.txt", &why));
  EXPECT_EQ(why, "cannot open the file");
}

TEST(SerializeTest, EndlessFileIsRefusedAtTheBound) {
  if (!std::filesystem::exists("/dev/zero")) {
    GTEST_SKIP() << "no /dev/zero on this host";
  }
  GinModel model(8, 2, 5);
  const std::vector<std::uint32_t> before = bits(model);
  std::string why;
  EXPECT_FALSE(load_parameters(model, "/dev/zero", &why));
  EXPECT_NE(why.find("-byte bound"), std::string::npos) << why;
  EXPECT_EQ(bits(model), before);
}

// A written model padded with blanks loads up to exactly the bound and is
// refused one byte past it, unread beyond.
TEST(SerializeTest, BlankPaddingLoadsUpToTheBoundAndNoFurther) {
  GinModel source(8, 2, 5);
  const std::size_t bound = parameters_file_bound(source);
  std::string text = parameters_to_string(source);
  ASSERT_LE(text.size() * 4, bound);
  text.resize(bound, ' ');
  const std::string path = ::testing::TempDir() + "/padded_weights.txt";
  for (const std::size_t size : {bound, bound + 1}) {
    text.resize(size, '\n');
    std::ofstream(path, std::ios::binary) << text;
    GinModel loaded(8, 2, 6);
    std::string why;
    const bool ok = load_parameters(loaded, path, &why);
    EXPECT_EQ(ok, size == bound) << size << ": " << why;
    if (ok) {
      EXPECT_EQ(bits(loaded), bits(source));
    } else {
      EXPECT_EQ(why, "the file is longer than the " + std::to_string(bound) +
                         "-byte bound for this model");
    }
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, WriterRefusesANonFiniteParameter) {
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::infinity()}) {
    TinyModule m({{1, 2}, {2, 2}});
    m.parameters()[1]->value.data()[3] = bad;
    const std::string path = ::testing::TempDir() + "/non_finite_weights.txt";
    std::remove(path.c_str());
    std::string why;
    EXPECT_FALSE(save_parameters(m, path, &why));
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_EQ(why, "tensor 1 of 2, value 3: not finite, so no reader could "
                   "load it");
  }
}

}  // namespace
}  // namespace ns::nn
