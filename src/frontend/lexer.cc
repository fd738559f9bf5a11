#include "frontend/lexer.h"

#include <cstring>

namespace rid::frontend {

const char *
tokName(Tok t)
{
    switch (t) {
      case Tok::End: return "<eof>";
      case Tok::Ident: return "identifier";
      case Tok::Number: return "number";
      case Tok::String: return "string";
      case Tok::KwInt: return "int";
      case Tok::KwVoid: return "void";
      case Tok::KwStruct: return "struct";
      case Tok::KwEnum: return "enum";
      case Tok::KwUnion: return "union";
      case Tok::KwIf: return "if";
      case Tok::KwElse: return "else";
      case Tok::KwWhile: return "while";
      case Tok::KwFor: return "for";
      case Tok::KwReturn: return "return";
      case Tok::KwGoto: return "goto";
      case Tok::KwNull: return "NULL";
      case Tok::KwTrue: return "true";
      case Tok::KwFalse: return "false";
      case Tok::KwAssert: return "assert";
      case Tok::KwStatic: return "static";
      case Tok::KwExtern: return "extern";
      case Tok::KwConst: return "const";
      case Tok::KwUnsigned: return "unsigned";
      case Tok::KwSigned: return "signed";
      case Tok::KwLong: return "long";
      case Tok::KwShort: return "short";
      case Tok::KwChar: return "char";
      case Tok::KwBool: return "bool";
      case Tok::KwBreak: return "break";
      case Tok::KwContinue: return "continue";
      case Tok::KwInline: return "inline";
      case Tok::KwVolatile: return "volatile";
      case Tok::KwTypedef: return "typedef";
      case Tok::KwSizeof: return "sizeof";
      case Tok::KwDo: return "do";
      case Tok::KwSwitch: return "switch";
      case Tok::KwCase: return "case";
      case Tok::KwDefault: return "default";
      case Tok::LParen: return "(";
      case Tok::RParen: return ")";
      case Tok::LBrace: return "{";
      case Tok::RBrace: return "}";
      case Tok::LBracket: return "[";
      case Tok::RBracket: return "]";
      case Tok::Semi: return ";";
      case Tok::Comma: return ",";
      case Tok::Colon: return ":";
      case Tok::Question: return "?";
      case Tok::Assign: return "=";
      case Tok::PlusAssign: return "+=";
      case Tok::MinusAssign: return "-=";
      case Tok::StarAssign: return "*=";
      case Tok::SlashAssign: return "/=";
      case Tok::PercentAssign: return "%=";
      case Tok::AmpAssign: return "&=";
      case Tok::PipeAssign: return "|=";
      case Tok::CaretAssign: return "^=";
      case Tok::ShlAssign: return "<<=";
      case Tok::ShrAssign: return ">>=";
      case Tok::Eq: return "==";
      case Tok::Ne: return "!=";
      case Tok::Lt: return "<";
      case Tok::Le: return "<=";
      case Tok::Gt: return ">";
      case Tok::Ge: return ">=";
      case Tok::AndAnd: return "&&";
      case Tok::OrOr: return "||";
      case Tok::Not: return "!";
      case Tok::Plus: return "+";
      case Tok::Minus: return "-";
      case Tok::Star: return "*";
      case Tok::Slash: return "/";
      case Tok::Percent: return "%";
      case Tok::Amp: return "&";
      case Tok::Pipe: return "|";
      case Tok::Caret: return "^";
      case Tok::Tilde: return "~";
      case Tok::Shl: return "<<";
      case Tok::Shr: return ">>";
      case Tok::PlusPlus: return "++";
      case Tok::MinusMinus: return "--";
      case Tok::Arrow: return "->";
      case Tok::Dot: return ".";
      case Tok::Ellipsis: return "...";
    }
    return "?";
}

namespace {

// ASCII classification: the lexer's character classes are fixed by the
// language, not by the process locale.
bool isDigit(char c) { return c >= '0' && c <= '9'; }
bool
isAlpha(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool isAlnum(char c) { return isAlpha(c) || isDigit(c); }
bool isIdentChar(char c) { return isAlnum(c) || c == '_'; }
bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
}

/** The keyword spelled @p w, or Tok::Ident. */
Tok
keywordOf(std::string_view w)
{
    auto is = [&](std::string_view kw) { return w == kw; };
    switch (w[0]) {
      case 'N': if (is("NULL")) return Tok::KwNull; break;
      case 'a': if (is("assert")) return Tok::KwAssert; break;
      case 'b':
        if (is("bool")) return Tok::KwBool;
        if (is("break")) return Tok::KwBreak;
        break;
      case 'c':
        if (is("char")) return Tok::KwChar;
        if (is("case")) return Tok::KwCase;
        if (is("const")) return Tok::KwConst;
        if (is("continue")) return Tok::KwContinue;
        break;
      case 'd':
        if (is("do")) return Tok::KwDo;
        if (is("default")) return Tok::KwDefault;
        break;
      case 'e':
        if (is("else")) return Tok::KwElse;
        if (is("enum")) return Tok::KwEnum;
        if (is("extern")) return Tok::KwExtern;
        break;
      case 'f':
        if (is("for")) return Tok::KwFor;
        if (is("false")) return Tok::KwFalse;
        break;
      case 'g': if (is("goto")) return Tok::KwGoto; break;
      case 'i':
        if (is("if")) return Tok::KwIf;
        if (is("int")) return Tok::KwInt;
        if (is("inline")) return Tok::KwInline;
        break;
      case 'l': if (is("long")) return Tok::KwLong; break;
      case 'r': if (is("return")) return Tok::KwReturn; break;
      case 's':
        if (is("struct")) return Tok::KwStruct;
        if (is("static")) return Tok::KwStatic;
        if (is("signed")) return Tok::KwSigned;
        if (is("short")) return Tok::KwShort;
        if (is("sizeof")) return Tok::KwSizeof;
        if (is("switch")) return Tok::KwSwitch;
        break;
      case 't':
        if (is("true")) return Tok::KwTrue;
        if (is("typedef")) return Tok::KwTypedef;
        break;
      case 'u':
        if (is("union")) return Tok::KwUnion;
        if (is("unsigned")) return Tok::KwUnsigned;
        break;
      case 'v':
        if (is("void")) return Tok::KwVoid;
        if (is("volatile")) return Tok::KwVolatile;
        break;
      case 'w': if (is("while")) return Tok::KwWhile; break;
      default: break;
    }
    return Tok::Ident;
}

} // anonymous namespace

std::vector<Token>
tokenize(const std::string &source)
{
    const std::string_view src = source;
    std::vector<Token> out;
    // Kernel-C averages close to four source bytes per token, so a third
    // of the size covers a typical unit without regrowth.
    out.reserve(src.size() / 3 + 1);
    size_t i = 0;
    int line = 1;
    const size_t n = src.size();

    auto peek = [&](size_t off = 0) -> char {
        return i + off < n ? src[i + off] : '\0';
    };
    auto push = [&](Tok kind, std::string_view text = {}, int64_t num = 0) {
        out.push_back(Token{text, num, line, kind});
    };

    while (i < n) {
        char c = src[i];
        if (c == '\n') {
            line++;
            i++;
            continue;
        }
        if (isSpace(c)) {
            i++;
            continue;
        }
        // Preprocessor lines: skip to end of line (no continuations).
        if (c == '#') {
            while (i < n && src[i] != '\n')
                i++;
            continue;
        }
        if (c == '/' && peek(1) == '/') {
            while (i < n && src[i] != '\n')
                i++;
            continue;
        }
        if (c == '/' && peek(1) == '*') {
            size_t start_line = line;
            i += 2;
            while (i < n && !(src[i] == '*' && peek(1) == '/')) {
                if (src[i] == '\n')
                    line++;
                i++;
            }
            if (i >= n)
                throw ParseError("unterminated comment", start_line);
            i += 2;
            continue;
        }
        if (isAlpha(c) || c == '_') {
            size_t start = i;
            while (i < n && isIdentChar(src[i]))
                i++;
            std::string_view word = src.substr(start, i - start);
            push(keywordOf(word), word);
            continue;
        }
        if (isDigit(c)) {
            size_t start = i;
            int base = 10;
            if (c == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
                base = 16;
                i += 2;
            }
            while (i < n && isAlnum(src[i]))
                i++;
            std::string_view text = src.substr(start, i - start);
            // Strip integer suffixes (u, l, ul, ull...).
            std::string_view digits = text;
            while (!digits.empty() &&
                   strchr("uUlL", digits.back()) != nullptr) {
                digits.remove_suffix(1);
            }
            int64_t value = 0;
            try {
                value = std::stoll(std::string(digits), nullptr,
                                   base == 16 ? 16 : 10);
            } catch (const std::exception &) {
                throw ParseError("bad numeric literal '" +
                                     std::string(text) + "'",
                                 line);
            }
            push(Tok::Number, text, value);
            continue;
        }
        if (c == '"' || c == '\'') {
            char quote = c;
            size_t start_line = line;
            size_t start = ++i;
            while (i < n && src[i] != quote) {
                if (src[i] == '\\' && i + 1 < n) {
                    i += 2;
                    continue;
                }
                if (src[i] == '\n')
                    line++;
                i++;
            }
            if (i >= n)
                throw ParseError("unterminated string", start_line);
            // The raw spelling between the quotes, escapes unexpanded.
            std::string_view text = src.substr(start, i - start);
            i++;
            if (quote == '\'') {
                // Character constants become their numeric value.
                int64_t v = text.empty() ? 0
                            : text[0] == '\\' ? 0
                                              : static_cast<int64_t>(text[0]);
                push(Tok::Number, text, v);
            } else {
                push(Tok::String, text);
            }
            continue;
        }

        auto two = [&](char c2) { return peek(1) == c2; };
        switch (c) {
          case '(': push(Tok::LParen); i++; break;
          case ')': push(Tok::RParen); i++; break;
          case '{': push(Tok::LBrace); i++; break;
          case '}': push(Tok::RBrace); i++; break;
          case '[': push(Tok::LBracket); i++; break;
          case ']': push(Tok::RBracket); i++; break;
          case ';': push(Tok::Semi); i++; break;
          case ',': push(Tok::Comma); i++; break;
          case ':': push(Tok::Colon); i++; break;
          case '?': push(Tok::Question); i++; break;
          case '~': push(Tok::Tilde); i++; break;
          case '=':
            if (two('=')) { push(Tok::Eq); i += 2; }
            else { push(Tok::Assign); i++; }
            break;
          case '!':
            if (two('=')) { push(Tok::Ne); i += 2; }
            else { push(Tok::Not); i++; }
            break;
          case '<':
            if (two('=')) { push(Tok::Le); i += 2; }
            else if (two('<')) {
                if (peek(2) == '=') { push(Tok::ShlAssign); i += 3; }
                else { push(Tok::Shl); i += 2; }
            } else { push(Tok::Lt); i++; }
            break;
          case '>':
            if (two('=')) { push(Tok::Ge); i += 2; }
            else if (two('>')) {
                if (peek(2) == '=') { push(Tok::ShrAssign); i += 3; }
                else { push(Tok::Shr); i += 2; }
            } else { push(Tok::Gt); i++; }
            break;
          case '&':
            if (two('&')) { push(Tok::AndAnd); i += 2; }
            else if (two('=')) { push(Tok::AmpAssign); i += 2; }
            else { push(Tok::Amp); i++; }
            break;
          case '|':
            if (two('|')) { push(Tok::OrOr); i += 2; }
            else if (two('=')) { push(Tok::PipeAssign); i += 2; }
            else { push(Tok::Pipe); i++; }
            break;
          case '^':
            if (two('=')) { push(Tok::CaretAssign); i += 2; }
            else { push(Tok::Caret); i++; }
            break;
          case '+':
            if (two('+')) { push(Tok::PlusPlus); i += 2; }
            else if (two('=')) { push(Tok::PlusAssign); i += 2; }
            else { push(Tok::Plus); i++; }
            break;
          case '-':
            if (two('-')) { push(Tok::MinusMinus); i += 2; }
            else if (two('=')) { push(Tok::MinusAssign); i += 2; }
            else if (two('>')) { push(Tok::Arrow); i += 2; }
            else { push(Tok::Minus); i++; }
            break;
          case '*':
            if (two('=')) { push(Tok::StarAssign); i += 2; }
            else { push(Tok::Star); i++; }
            break;
          case '/':
            if (two('=')) { push(Tok::SlashAssign); i += 2; }
            else { push(Tok::Slash); i++; }
            break;
          case '%':
            if (two('=')) { push(Tok::PercentAssign); i += 2; }
            else { push(Tok::Percent); i++; }
            break;
          case '.':
            if (two('.') && peek(2) == '.') { push(Tok::Ellipsis); i += 3; }
            else { push(Tok::Dot); i++; }
            break;
          default:
            throw ParseError(std::string("stray character '") + c + "'",
                             line);
        }
    }
    push(Tok::End);
    return out;
}

} // namespace rid::frontend
