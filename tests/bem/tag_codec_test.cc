#include "bem/tag_codec.h"

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dpc/tag_scanner.h"

namespace dynaprox::bem {
namespace {

TEST(TagCodecTest, LiteralPassesPlainTextThrough) {
  std::string out;
  TagCodec::AppendLiteral("<html>hello</html>", out);
  EXPECT_EQ(out, "<html>hello</html>");
}

TEST(TagCodecTest, LiteralEscapesStx) {
  std::string out;
  TagCodec::AppendLiteral(std::string("a\x02z"), out);
  EXPECT_EQ(out, std::string("a\x02L\x03z"));
}

TEST(TagCodecTest, EtxNeedsNoEscape) {
  std::string out;
  TagCodec::AppendLiteral(std::string("a\x03z"), out);
  EXPECT_EQ(out, std::string("a\x03z"));
}

TEST(TagCodecTest, GetTagFormat) {
  std::string out;
  TagCodec::AppendGet(0x2A, out);
  EXPECT_EQ(out, std::string("\x02G2a\x03"));
}

TEST(TagCodecTest, SetTagWrapsContent) {
  std::string out;
  TagCodec::AppendSet(1, "body", out);
  EXPECT_EQ(out, std::string("\x02S1\x03") + "body" + "\x02" "E\x03");
}

TEST(TagCodecTest, SetEscapesContent) {
  std::string out;
  TagCodec::AppendSet(1, std::string("x\x02y"), out);
  EXPECT_EQ(out,
            std::string("\x02S1\x03") + "x\x02L\x03y" + "\x02" "E\x03");
}

TEST(TagCodecTest, TagSizesMatchEmission) {
  for (DpcKey key : {DpcKey{0}, DpcKey{15}, DpcKey{16}, DpcKey{4095},
                     DpcKey{1u << 20}}) {
    std::string get;
    TagCodec::AppendGet(key, get);
    EXPECT_EQ(get.size(), TagCodec::GetTagSize(key));

    std::string set;
    TagCodec::AppendSet(key, "0123456789", set);
    EXPECT_EQ(set.size(), TagCodec::SetFramingSize(key) + 10);
  }
}

TEST(TagCodecTest, TypicalTagSizeIsAboutTenBytes) {
  // Table 2 sets g = 10; our realized GET tag for keys up to 0xffffff is
  // 3 + <=6 = at most 9 bytes, comfortably within the modeled budget.
  EXPECT_LE(TagCodec::GetTagSize(0xFFFFFF), 10u);
  EXPECT_GE(TagCodec::GetTagSize(0), 4u);
}

// The escape rule one byte at a time: the reference AppendLiteral must
// reproduce exactly.
std::string ReferenceEscape(std::string_view text) {
  std::string out;
  for (char c : text) {
    if (c == TagCodec::kStx) {
      out += "\x02L\x03";
    } else {
      out += c;
    }
  }
  return out;
}

std::vector<std::string> EscapeInputs() {
  const std::string stx(1, TagCodec::kStx);
  std::vector<std::string> inputs = {
      "",
      "plain text, no marker",
      stx,
      stx + "leading",
      "trailing" + stx,
      stx + "both" + stx,
      std::string(5, TagCodec::kStx),
      "a" + std::string(3, TagCodec::kStx) + "b" + stx + stx,
      stx + "S1\x03" "fake tag" + stx + "E\x03",
      std::string("\x03\x03\x00\x02\x00", 5),
  };
  std::mt19937 rng(20020603);
  for (int i = 0; i < 300; ++i) {
    std::string bytes(rng() % 600, '\0');
    // Half the inputs draw from a tiny alphabet so STX runs are common.
    const bool dense = i % 2 == 0;
    for (char& c : bytes) {
      c = dense ? static_cast<char>(rng() % 4) : static_cast<char>(rng());
    }
    inputs.push_back(std::move(bytes));
  }
  return inputs;
}

TEST(TagCodecTest, LiteralAndSetMatchReferenceEscapeAndRoundTrip) {
  for (const std::string& text : EscapeInputs()) {
    std::string literal = "prefix";
    TagCodec::AppendLiteral(text, literal);
    EXPECT_EQ(literal, "prefix" + ReferenceEscape(text));

    std::string set;
    TagCodec::AppendSet(0x2a, text, set);
    EXPECT_EQ(set, std::string("\x02S2a\x03") + ReferenceEscape(text) +
                       "\x02" "E\x03");

    // The DPC scanner recovers the original bytes from both encodings.
    std::string wire;
    TagCodec::AppendLiteral(text, wire);
    TagCodec::AppendSet(7, text, wire);
    TagCodec::AppendLiteral(text, wire);
    Result<std::vector<dpc::TemplateSegment>> segments =
        dpc::ParseTemplate(wire);
    ASSERT_TRUE(segments.ok()) << segments.status().ToString();
    std::string before, body, after;
    bool seen_set = false;
    for (const dpc::TemplateSegment& segment : *segments) {
      if (segment.kind == dpc::TemplateSegment::Kind::kSet) {
        EXPECT_EQ(segment.key, 7u);
        body = segment.Text();
        seen_set = true;
      } else {
        ASSERT_EQ(segment.kind, dpc::TemplateSegment::Kind::kLiteral);
        (seen_set ? after : before) += segment.Text();
      }
    }
    EXPECT_TRUE(seen_set);
    EXPECT_EQ(before, text);
    EXPECT_EQ(body, text);
    EXPECT_EQ(after, text);
  }
}

TEST(TagCodecTest, EmptyLiteralAppendsNothing) {
  std::string out = "x";
  TagCodec::AppendLiteral(std::string_view(), out);
  EXPECT_EQ(out, "x");
}

}  // namespace
}  // namespace dynaprox::bem
