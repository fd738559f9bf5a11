/**
 * @file
 * Lexer for Kernel-C, the C subset accepted by RID's front-end.
 *
 * Kernel-C covers the code shapes of the paper's examples (Figures 1, 8,
 * 9, 10): function definitions and prototypes, scalar and pointer
 * declarations, if/else, while/for, goto/labels, return, assert, calls,
 * field access and the usual comparison/logical operators. Preprocessor
 * lines and comments are skipped.
 */

#ifndef RID_FRONTEND_LEXER_H
#define RID_FRONTEND_LEXER_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rid::frontend {

enum class Tok : uint8_t {
    End,
    Ident,
    Number,
    String,
    // keywords
    KwInt, KwVoid, KwStruct, KwEnum, KwUnion, KwIf, KwElse, KwWhile, KwFor,
    KwReturn, KwGoto, KwNull, KwTrue, KwFalse, KwAssert, KwStatic, KwExtern,
    KwConst, KwUnsigned, KwSigned, KwLong, KwShort, KwChar, KwBool,
    KwBreak, KwContinue, KwInline, KwVolatile, KwTypedef, KwSizeof, KwDo,
    KwSwitch, KwCase, KwDefault,
    // punctuation / operators
    LParen, RParen, LBrace, RBrace, LBracket, RBracket,
    Semi, Comma, Colon, Question,
    Assign,          // =
    PlusAssign, MinusAssign, StarAssign, SlashAssign, PercentAssign,
    AmpAssign, PipeAssign, CaretAssign, ShlAssign, ShrAssign,
    Eq, Ne, Lt, Le, Gt, Ge,
    AndAnd, OrOr, Not,
    Plus, Minus, Star, Slash, Percent,
    Amp, Pipe, Caret, Tilde, Shl, Shr,
    PlusPlus, MinusMinus,
    Arrow, Dot,
    Ellipsis,
};

const char *tokName(Tok t);

/**
 * One token. `text` is a view into the source buffer passed to
 * tokenize(), so a token is only valid while that buffer is alive and
 * unmodified; the parser copies the text it keeps into the AST. Fields
 * are ordered largest first so the struct packs into 32 bytes.
 */
struct Token
{
    std::string_view text; ///< identifier / keyword / number / string spelling
    int64_t number = 0;    ///< numeric value for Number
    int line = 0;
    Tok kind = Tok::End;
};

/** Error raised by the lexer or parser; carries a source line. */
class ParseError : public std::runtime_error
{
  public:
    ParseError(std::string msg, int line)
        : std::runtime_error(std::move(msg)), line_(line)
    {}
    int line() const { return line_; }

  private:
    int line_;
};

/**
 * Tokenize Kernel-C source. Token texts view @p source, which must
 * outlive the returned tokens.
 *
 * @throws ParseError on malformed input (unterminated comment/string,
 *         stray characters).
 */
std::vector<Token> tokenize(const std::string &source);
/** Deleted: the tokens would view a temporary that dies at the end of
 *  the call's full-expression. Tokenize a named string instead. */
std::vector<Token> tokenize(std::string &&source) = delete;

} // namespace rid::frontend

#endif // RID_FRONTEND_LEXER_H
