/**
 * @file
 * Unit tests for the Kernel-C lexer (frontend/lexer.h).
 */

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "frontend/lexer.h"

namespace rid::frontend {
namespace {

// Tokens view their source, so tokenizing a temporary must not compile:
// only an lvalue string that outlives the tokens is accepted.
template <typename S, typename = void>
struct CanTokenize : std::false_type
{};
template <typename S>
struct CanTokenize<S, std::void_t<decltype(tokenize(std::declval<S>()))>>
    : std::true_type
{};
static_assert(CanTokenize<const std::string &>::value);
static_assert(CanTokenize<std::string &>::value);
static_assert(!CanTokenize<std::string &&>::value);
static_assert(!CanTokenize<const char *>::value);

std::vector<Tok>
kinds(const std::string &src)
{
    std::vector<Tok> out;
    for (const auto &tok : tokenize(src))
        out.push_back(tok.kind);
    return out;
}

TEST(Lexer, EmptyInputYieldsEnd)
{
    EXPECT_EQ(kinds(""), (std::vector<Tok>{Tok::End}));
}

TEST(Lexer, IdentifiersAndKeywords)
{
    std::string src = "int foo while_x struct";
    auto toks = tokenize(src);
    EXPECT_EQ(toks[0].kind, Tok::KwInt);
    EXPECT_EQ(toks[1].kind, Tok::Ident);
    EXPECT_EQ(toks[1].text, "foo");
    EXPECT_EQ(toks[2].kind, Tok::Ident);  // not the keyword "while"
    EXPECT_EQ(toks[3].kind, Tok::KwStruct);
}

TEST(Lexer, DecimalAndHexNumbers)
{
    std::string src = "42 0x54 0XFF";
    auto toks = tokenize(src);
    EXPECT_EQ(toks[0].number, 42);
    EXPECT_EQ(toks[1].number, 0x54);
    EXPECT_EQ(toks[2].number, 0xFF);
}

TEST(Lexer, IntegerSuffixesStripped)
{
    std::string src = "10u 10UL 10ull 0x10L";
    auto toks = tokenize(src);
    EXPECT_EQ(toks[0].number, 10);
    EXPECT_EQ(toks[1].number, 10);
    EXPECT_EQ(toks[2].number, 10);
    EXPECT_EQ(toks[3].number, 16);
}

TEST(Lexer, CharConstantsBecomeNumbers)
{
    std::string src = "'a'";
    auto toks = tokenize(src);
    EXPECT_EQ(toks[0].kind, Tok::Number);
    EXPECT_EQ(toks[0].number, 'a');
}

TEST(Lexer, StringsWithEscapes)
{
    std::string src = R"("hello \"world\"")";
    auto toks = tokenize(src);
    EXPECT_EQ(toks[0].kind, Tok::String);
}

TEST(Lexer, LineCommentsSkipped)
{
    EXPECT_EQ(kinds("a // comment\nb"),
              (std::vector<Tok>{Tok::Ident, Tok::Ident, Tok::End}));
}

TEST(Lexer, BlockCommentsSkipped)
{
    EXPECT_EQ(kinds("a /* multi\nline */ b"),
              (std::vector<Tok>{Tok::Ident, Tok::Ident, Tok::End}));
}

TEST(Lexer, PreprocessorLinesSkipped)
{
    EXPECT_EQ(kinds("#include <foo.h>\nx"),
              (std::vector<Tok>{Tok::Ident, Tok::End}));
}

TEST(Lexer, TwoCharOperators)
{
    EXPECT_EQ(kinds("== != <= >= && || -> ++ -- << >>"),
              (std::vector<Tok>{Tok::Eq, Tok::Ne, Tok::Le, Tok::Ge,
                                Tok::AndAnd, Tok::OrOr, Tok::Arrow,
                                Tok::PlusPlus, Tok::MinusMinus, Tok::Shl,
                                Tok::Shr, Tok::End}));
}

TEST(Lexer, CompoundAssignments)
{
    EXPECT_EQ(kinds("+= -= *= /= %= &= |= ^= <<= >>="),
              (std::vector<Tok>{
                  Tok::PlusAssign, Tok::MinusAssign, Tok::StarAssign,
                  Tok::SlashAssign, Tok::PercentAssign, Tok::AmpAssign,
                  Tok::PipeAssign, Tok::CaretAssign, Tok::ShlAssign,
                  Tok::ShrAssign, Tok::End}));
}

TEST(Lexer, MinusVersusArrow)
{
    EXPECT_EQ(kinds("a-b a->b a-->b"),
              (std::vector<Tok>{Tok::Ident, Tok::Minus, Tok::Ident,
                                Tok::Ident, Tok::Arrow, Tok::Ident,
                                Tok::Ident, Tok::MinusMinus, Tok::Gt,
                                Tok::Ident, Tok::End}));
}

TEST(Lexer, Ellipsis)
{
    EXPECT_EQ(kinds("( ... )"),
              (std::vector<Tok>{Tok::LParen, Tok::Ellipsis, Tok::RParen,
                                Tok::End}));
}

TEST(Lexer, LineNumbersTracked)
{
    std::string src = "a\nb\n\nc";
    auto toks = tokenize(src);
    EXPECT_EQ(toks[0].line, 1);
    EXPECT_EQ(toks[1].line, 2);
    EXPECT_EQ(toks[2].line, 4);
}

TEST(Lexer, LineNumbersAcrossBlockComments)
{
    std::string src = "/* a\nb\n*/ x";
    auto toks = tokenize(src);
    EXPECT_EQ(toks[0].line, 3);
}

TEST(Lexer, UnterminatedCommentThrows)
{
    std::string src = "/* never closed";
    EXPECT_THROW(tokenize(src), ParseError);
}

TEST(Lexer, UnterminatedStringThrows)
{
    std::string src = "\"never closed";
    EXPECT_THROW(tokenize(src), ParseError);
}

TEST(Lexer, StrayCharacterThrows)
{
    std::string stray = "a $ b";
    EXPECT_THROW(tokenize(stray), ParseError);
    std::string stray_line3 = "\n\n@";
    try {
        tokenize(stray_line3);
    } catch (const ParseError &e) {
        EXPECT_EQ(e.line(), 3);
    }
}

TEST(Lexer, TokenTextsViewTheSourceBuffer)
{
    // Token texts are slices of the caller's buffer, not copies: every
    // spelled token must point inside it and spell what the source does.
    std::string src = "int f(void) { x = 0x10 + 'c'; s = \"a\\\"b\"; "
                      "return y_1; }\n#define Z 1\n/* c */ g(7UL);";
    const char *begin = src.data();
    const char *end = begin + src.size();
    size_t spelled = 0;
    for (const auto &tok : tokenize(src)) {
        if (tok.kind != Tok::Ident && tok.kind != Tok::Number &&
            tok.kind != Tok::String)
            continue;
        spelled++;
        ASSERT_FALSE(tok.text.empty()) << tokName(tok.kind);
        EXPECT_GE(tok.text.data(), begin) << tok.text;
        EXPECT_LE(tok.text.data() + tok.text.size(), end) << tok.text;
        EXPECT_EQ(src.compare(tok.text.data() - begin, tok.text.size(),
                              tok.text),
                  0);
    }
    // f x 0x10 c s a\"b y_1 g 7UL
    EXPECT_EQ(spelled, 9u);
    auto toks = tokenize(src);
    EXPECT_EQ(toks[8].text, "0x10");
    EXPECT_EQ(toks[8].number, 16);
}

TEST(Lexer, TokenIsCompact)
{
    EXPECT_LE(sizeof(Token), 32u);
}

TEST(Lexer, NullKeyword)
{
    std::string src = "NULL null";
    auto toks = tokenize(src);
    EXPECT_EQ(toks[0].kind, Tok::KwNull);
    EXPECT_EQ(toks[1].kind, Tok::Ident);  // lowercase is an identifier
}

} // anonymous namespace
} // namespace rid::frontend
