#include "index.h"

#include <algorithm>
#include <cctype>
#include <filesystem>

namespace cosched::lint {

namespace {

bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

bool is_digit(char c) {
  return std::isdigit(static_cast<unsigned char>(c)) != 0;
}

/// Multi-character punctuators the extractors care about.  Everything else
/// lexes as a single character.
const char* kPuncts[] = {
    "<<=", ">>=", "::", "->", "++", "--", "+=", "-=", "*=", "/=",
    "%=",  "|=",  "&=", "^=", "==", "!=", "<=", ">=", "&&", "||",
    "<<",  ">>",
};

bool is_keyword(const std::string& s) {
  static const std::set<std::string> kw = {
      "if",     "for",    "while",  "switch",   "return", "sizeof",
      "catch",  "new",    "delete", "throw",    "case",   "default",
      "do",     "else",   "goto",   "co_await", "co_return",
  };
  return kw.count(s) != 0;
}

/// ALL_CAPS identifiers are attribute/annotation macros (REQUIRES,
/// ACQUIRE, GUARDED_BY, COSCHED_*) when they appear between a parameter
/// list and a function body.
bool is_annotation_macro(const std::string& s) {
  if (s.size() < 2) return false;
  bool has_alpha = false;
  for (char c : s) {
    if (std::islower(static_cast<unsigned char>(c)) != 0) return false;
    if (std::isupper(static_cast<unsigned char>(c)) != 0) has_alpha = true;
  }
  return has_alpha;
}

bool is_specifier(const std::string& s) {
  static const std::set<std::string> spec = {"const",   "noexcept", "override",
                                             "final",   "mutable",  "try",
                                             "volatile"};
  return spec.count(s) != 0;
}

void tokenize_file(const std::vector<std::string>& code,
                   std::vector<Token>& out) {
  // `continuation` marks lines swallowed by a backslash-continued #directive.
  bool continuation = false;
  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& line = code[li];
    std::size_t first = 0;
    while (first < line.size() && is_space(line[first])) ++first;
    const bool directive = first < line.size() && line[first] == '#';
    if (directive || continuation) {
      // Preprocessor lines are skipped so unbalanced macro bodies cannot
      // desynchronize brace tracking; line rules still see them.
      continuation = !line.empty() && line.back() == '\\';
      continue;
    }
    continuation = false;
    for (std::size_t i = 0; i < line.size();) {
      const char c = line[i];
      if (is_space(c)) {
        ++i;
        continue;
      }
      if (is_ident_char(c)) {
        std::size_t b = i;
        while (i < line.size() && is_ident_char(line[i])) ++i;
        Token t;
        t.kind = is_digit(c) ? Token::kNumber : Token::kIdent;
        t.text = line.substr(b, i - b);
        t.line = static_cast<int>(li + 1);
        t.col = static_cast<int>(b);
        out.push_back(std::move(t));
        continue;
      }
      std::string text(1, c);
      for (const char* p : kPuncts) {
        const std::size_t n = std::string(p).size();
        if (line.compare(i, n, p) == 0) {
          text = p;
          break;
        }
      }
      Token t;
      t.kind = Token::kPunct;
      t.text = text;
      t.line = static_cast<int>(li + 1);
      t.col = static_cast<int>(i);
      out.push_back(std::move(t));
      i += text.size();
    }
  }
}

/// Index of the '(' matching the ')' at `close`, or npos.
std::size_t match_back(const std::vector<Token>& toks, std::size_t close) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (toks[i].text == ")") ++depth;
    if (toks[i].text == "(" && --depth == 0) return i;
  }
  return std::string::npos;
}

std::size_t match_forward(const std::vector<Token>& toks, std::size_t open,
                          const char* o, const char* c) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == o) ++depth;
    if (toks[i].text == c && --depth == 0) return i;
  }
  return std::string::npos;
}

struct BraceInfo {
  enum Kind { kNamespace, kClass, kEnum, kFunction, kOther } kind = kOther;
  std::string name;  // class/enum/function name
  std::string cls;   // explicit A::B qualifier on a function definition
  int name_line = 0;
};

/// Classifies the '{' at token index `t` given the statement context.  Only
/// called at namespace/class/global scope — braces inside function bodies
/// are plain blocks.
BraceInfo classify_brace(const std::vector<Token>& toks, std::size_t t) {
  BraceInfo info;
  // Statement start: just after the previous ';', '{' or '}'.
  std::size_t s = 0;
  for (std::size_t i = t; i-- > 0;) {
    const std::string& x = toks[i].text;
    if (x == ";" || x == "{" || x == "}") {
      s = i + 1;
      break;
    }
  }
  for (std::size_t i = s; i < t; ++i) {
    if (toks[i].text == "namespace") {
      info.kind = BraceInfo::kNamespace;
      return info;
    }
    if (toks[i].text == "enum") {
      info.kind = BraceInfo::kEnum;
      for (std::size_t j = i + 1; j < t; ++j) {
        if (toks[j].kind != Token::kIdent) break;
        if (toks[j].text == "class" || toks[j].text == "struct") continue;
        info.name = toks[j].text;
        info.name_line = toks[j].line;
        break;
      }
      return info;
    }
  }

  // Class/struct definition: the keyword is present and no parameter list
  // precedes the brace (a `struct Foo make() {` function falls through).
  {
    bool has_paren = false;
    std::size_t kw = std::string::npos;
    for (std::size_t i = s; i < t; ++i) {
      if (toks[i].text == "(") has_paren = true;
      if (toks[i].text == "class" || toks[i].text == "struct") kw = i;
    }
    if (kw != std::string::npos && !has_paren) {
      info.kind = BraceInfo::kClass;
      if (kw + 1 < t && toks[kw + 1].kind == Token::kIdent) {
        info.name = toks[kw + 1].text;
        info.name_line = toks[kw + 1].line;
      }
      return info;
    }
  }

  // Function definition: walk back from '{' over trailing specifiers and
  // annotation-macro calls to the parameter list, then read the (possibly
  // qualified) name.  Constructor initializer lists are stepped over.
  std::size_t i = t;
  while (i > s) {
    --i;
    const Token& tok = toks[i];
    if (tok.kind == Token::kIdent && is_specifier(tok.text)) continue;
    if (tok.text != ")") break;
    const std::size_t open = match_back(toks, i);
    if (open == std::string::npos || open == 0 || open <= s) break;
    const Token& before = toks[open - 1];
    if (before.kind != Token::kIdent) break;
    if (is_annotation_macro(before.text) || before.text == "noexcept" ||
        before.text == "decltype") {
      i = open - 1;
      continue;
    }
    if (is_keyword(before.text)) break;
    // Candidate name at open-1; resolve an explicit A::B:: qualifier chain.
    std::size_t chain_start = open - 1;  // first token of Cls::name chain
    std::string cls;
    if (chain_start >= s + 2 && toks[chain_start - 1].text == "::" &&
        toks[chain_start - 2].kind == Token::kIdent) {
      cls = toks[chain_start - 2].text;  // innermost qualifier wins
      chain_start -= 2;
      while (chain_start >= s + 2 && toks[chain_start - 1].text == "::" &&
             toks[chain_start - 2].kind == Token::kIdent)
        chain_start -= 2;  // skip any outer namespace qualifiers
    }
    // Constructor initializer-list entry?  `Foo::Foo(...) : a_(x), b_(y) {`
    // walking back lands on `b_` — hop to the ')' of the real parameter
    // list (the one preceding the ':' that introduces the list).
    if (chain_start > s) {
      const std::string& p = toks[chain_start - 1].text;
      if (p == "," || p == ":") {
        bool hopped = false;
        int depth = 0;
        for (std::size_t m = chain_start - 1; m-- > s;) {
          const std::string& x = toks[m].text;
          if (x == ")" || x == "]" || x == "}") ++depth;
          if (x == "(" || x == "[" || x == "{") --depth;
          if (depth == 0 && x == ":" && m > s && toks[m - 1].text == ")") {
            i = m;  // next loop iteration steps onto the ')'
            hopped = true;
            break;
          }
        }
        if (hopped) continue;
        break;
      }
    }
    info.kind = BraceInfo::kFunction;
    info.name = before.text;
    info.cls = cls;
    info.name_line = before.line;
    return info;
  }
  return info;
}

/// Mutating container/method calls that count as member writes for the
/// snapshot-coverage analysis.
bool is_mutator_method(const std::string& s) {
  static const std::set<std::string> m = {
      "insert",     "erase",      "clear",    "emplace", "emplace_back",
      "push_back",  "pop_back",   "push",     "pop",     "push_front",
      "pop_front",  "assign",     "resize",   "reset",   "emplace_hint",
      "insert_or_assign",
  };
  return m.count(s) != 0;
}

bool is_assign_op(const std::string& s) {
  static const std::set<std::string> ops = {"=",  "+=", "-=",  "*=",  "/=",
                                            "%=", "|=", "&=",  "^=",  "<<=",
                                            ">>=", "++", "--"};
  return ops.count(s) != 0;
}

struct Scope {
  BraceInfo::Kind kind = BraceInfo::kOther;
  std::string name;
  std::size_t open = 0;
  int func = -1;  // index into index.functions for kFunction scopes
};

void scan_container_decls(const std::vector<std::string>& code,
                          const char* const* types, std::size_t n_types,
                          std::set<std::string>* vars,
                          std::set<std::string>* accessors) {
  for (const std::string& codeline : code) {
    for (std::size_t t = 0; t < n_types; ++t) {
      const char* type = types[t];
      std::size_t pos = 0;
      while ((pos = codeline.find(type, pos)) != std::string::npos) {
        // Identifier boundary so "map" never matches inside "unordered_map".
        if (pos > 0 && is_ident_char(codeline[pos - 1])) {
          pos += 1;
          continue;
        }
        std::size_t i = pos + std::string(type).size();
        pos = i;
        if (i >= codeline.size() || codeline[i] != '<') continue;
        int depth = 0;
        for (; i < codeline.size(); ++i) {
          if (codeline[i] == '<') ++depth;
          if (codeline[i] == '>' && --depth == 0) break;
        }
        if (i >= codeline.size()) continue;  // args continue on the next line
        ++i;
        while (i < codeline.size() &&
               (is_space(codeline[i]) || codeline[i] == '&' ||
                codeline[i] == '*'))
          ++i;
        std::size_t name_begin = i;
        while (i < codeline.size() && is_ident_char(codeline[i])) ++i;
        if (i == name_begin) continue;  // e.g. "#include <unordered_map>"
        const std::string name = codeline.substr(name_begin, i - name_begin);
        while (i < codeline.size() && is_space(codeline[i])) ++i;
        if (i < codeline.size() && codeline[i] == '(') {
          if (accessors != nullptr) accessors->insert(name);
        } else {
          if (vars != nullptr) vars->insert(name);
        }
      }
    }
  }
}

void scan_unordered_decls(const std::vector<std::string>& code,
                          UnorderedDecls& out) {
  static const char* kUnordered[] = {"unordered_map", "unordered_set",
                                     "unordered_multimap",
                                     "unordered_multiset"};
  static const char* kOrdered[] = {"vector",   "map",   "set",   "multimap",
                                   "multiset", "deque", "array", "list"};
  scan_container_decls(code, kUnordered, std::size(kUnordered), &out.vars,
                       &out.accessors);
  scan_container_decls(code, kOrdered, std::size(kOrdered), nullptr,
                       &out.ordered_accessors);
}

std::string file_stem(const std::string& path) {
  return std::filesystem::path(path).stem().string();
}

/// Extracts functions, enums, locks, calls, mutations and case labels from
/// one file's token stream.
void extract_file(ProjectIndex& index, int file) {
  const std::vector<Token>& toks = index.file_model[file].tokens;
  std::vector<Scope> stack;
  struct PendingLock {
    int func = -1;
    std::size_t lock_idx = 0;  // index into functions[func].locks
    std::size_t block_open = 0;
  };
  std::vector<PendingLock> pending_locks;
  std::vector<std::size_t> open_blocks;  // '{' token indices inside a function

  const auto current_func = [&]() -> int {
    for (std::size_t i = stack.size(); i-- > 0;) {
      if (stack[i].kind == BraceInfo::kFunction) return stack[i].func;
      if (stack[i].kind == BraceInfo::kClass ||
          stack[i].kind == BraceInfo::kNamespace)
        return -1;
    }
    return -1;
  };
  const auto enclosing_class = [&]() -> std::string {
    for (std::size_t i = stack.size(); i-- > 0;)
      if (stack[i].kind == BraceInfo::kClass) return stack[i].name;
    return "";
  };

  for (std::size_t t = 0; t < toks.size(); ++t) {
    const Token& tok = toks[t];
    const int fn = current_func();

    if (tok.text == "{") {
      if (fn >= 0) {
        Scope s;
        s.kind = BraceInfo::kOther;
        s.open = t;
        s.func = fn;
        stack.push_back(s);
        open_blocks.push_back(t);
        continue;
      }
      BraceInfo info = classify_brace(toks, t);
      Scope s;
      s.kind = info.kind;
      s.open = t;
      if (info.kind == BraceInfo::kFunction) {
        FunctionInfo f;
        f.cls = !info.cls.empty() ? info.cls : enclosing_class();
        f.name = info.name;
        f.file = file;
        f.line = info.name_line;
        f.body_first_line = tok.line;
        f.body_begin = t;
        index.functions.push_back(std::move(f));
        s.func = static_cast<int>(index.functions.size() - 1);
        open_blocks.push_back(t);
      } else if (info.kind == BraceInfo::kClass) {
        s.name = info.name;
      } else if (info.kind == BraceInfo::kEnum) {
        EnumInfo e;
        e.name = info.name;
        e.file = file;
        e.line = info.name_line;
        index.enums.push_back(std::move(e));
        s.name = info.name;
      }
      stack.push_back(s);
      continue;
    }

    if (tok.text == "}") {
      if (stack.empty()) continue;
      Scope s = stack.back();
      stack.pop_back();
      if (s.kind == BraceInfo::kFunction && s.func >= 0) {
        FunctionInfo& f = index.functions[s.func];
        f.body_end = t;
        f.body_last_line = tok.line;
      }
      if (!open_blocks.empty() && open_blocks.back() == s.open) {
        open_blocks.pop_back();
        for (PendingLock& pl : pending_locks) {
          if (pl.block_open == s.open && pl.func >= 0) {
            LockSite& l = index.functions[pl.func].locks[pl.lock_idx];
            if (l.scope_end == 0) l.scope_end = t;
          }
        }
      }
      continue;
    }

    // Enum body: enumerators are identifiers right after '{' or ','.
    if (!stack.empty() && stack.back().kind == BraceInfo::kEnum &&
        tok.kind == Token::kIdent && t > 0 &&
        (toks[t - 1].text == "{" || toks[t - 1].text == ",")) {
      if (!index.enums.empty())
        index.enums.back().enumerators.push_back({tok.text, tok.line});
      continue;
    }

    // REQUIRES on a declaration (header) or definition: remember which
    // function it belongs to and which mutex it names.
    if (tok.kind == Token::kIdent && tok.text == "REQUIRES" &&
        t + 1 < toks.size() && toks[t + 1].text == "(") {
      const std::size_t close = match_forward(toks, t + 1, "(", ")");
      std::string mutex;
      if (close != std::string::npos)
        for (std::size_t m = t + 2; m < close; ++m) mutex += toks[m].text;
      // The annotated function's name: the identifier before the preceding
      // parameter list.
      if (t >= 1 && toks[t - 1].text == ")") {
        const std::size_t open = match_back(toks, t - 1);
        if (open != std::string::npos && open > 0 &&
            toks[open - 1].kind == Token::kIdent) {
          std::string cls = enclosing_class();
          std::string name = toks[open - 1].text;
          if (open >= 3 && toks[open - 2].text == "::" &&
              toks[open - 3].kind == Token::kIdent)
            cls = toks[open - 3].text;
          const std::string q = cls.empty() ? name : cls + "::" + name;
          if (!mutex.empty()) {
            const std::string qm =
                (mutex.find(':') == std::string::npos &&
                 mutex.find('.') == std::string::npos &&
                 mutex.rfind("g_", 0) != 0 && !cls.empty())
                    ? cls + "::" + mutex
                    : mutex;
            index.requires_mutexes.emplace(q, qm);
          }
        }
      }
    }

    if (fn < 0) continue;
    FunctionInfo& f = index.functions[fn];

    // case Enum::kX: labels.
    if (tok.kind == Token::kIdent &&
        (tok.text == "case" || tok.text == "default")) {
      CaseSite cs;
      cs.token = t;
      cs.line = tok.line;
      if (tok.text == "default") {
        cs.enumerator = "default";
      } else {
        std::size_t j = t + 1;
        std::vector<std::string> chain;
        while (j < toks.size() && toks[j].kind == Token::kIdent) {
          chain.push_back(toks[j].text);
          if (j + 1 < toks.size() && toks[j + 1].text == "::")
            j += 2;
          else
            break;
        }
        if (!chain.empty()) {
          cs.enumerator = chain.back();
          if (chain.size() >= 2) cs.enum_name = chain[chain.size() - 2];
        }
      }
      if (!cs.enumerator.empty()) f.cases.push_back(std::move(cs));
      continue;
    }

    // MutexLock acquisitions.
    if (tok.kind == Token::kIdent && tok.text == "MutexLock" &&
        t + 2 < toks.size() && toks[t + 1].kind == Token::kIdent &&
        toks[t + 2].text == "(") {
      const std::size_t close = match_forward(toks, t + 2, "(", ")");
      if (close != std::string::npos) {
        std::string raw;
        for (std::size_t m = t + 3; m < close; ++m) raw += toks[m].text;
        LockSite l;
        l.line = tok.line;
        l.token = t;
        const bool plain = raw.find(':') == std::string::npos &&
                           raw.find('.') == std::string::npos &&
                           raw.find("->") == std::string::npos &&
                           raw.rfind("g_", 0) != 0;
        l.mutex = (plain && !f.cls.empty()) ? f.cls + "::" + raw : raw;
        f.locks.push_back(std::move(l));
        PendingLock pl;
        pl.func = fn;
        pl.lock_idx = f.locks.size() - 1;
        pl.block_open = open_blocks.empty() ? f.body_begin : open_blocks.back();
        pending_locks.push_back(pl);
      }
      continue;
    }

    // Call sites: ident '(' with a non-keyword name.
    if (tok.kind == Token::kIdent && !is_keyword(tok.text) &&
        t + 1 < toks.size() && toks[t + 1].text == "(") {
      CallSite c;
      c.name = tok.text;
      c.line = tok.line;
      c.token = t;
      std::size_t b = t;
      std::string recv;
      while (b >= 2 &&
             (toks[b - 1].text == "." || toks[b - 1].text == "->" ||
              toks[b - 1].text == "::") &&
             toks[b - 2].kind == Token::kIdent) {
        recv = toks[b - 2].text + toks[b - 1].text + recv;
        b -= 2;
      }
      if (!recv.empty()) recv.erase(recv.find_last_not_of(":>-.") + 1);
      // recv currently ends with the separator; strip back to the chain.
      c.receiver = recv;
      f.calls.push_back(std::move(c));
    }

    // Member mutations: bare (or this->) `_`-suffixed identifier written to.
    if (tok.kind == Token::kIdent && tok.text.size() > 1 &&
        tok.text.back() == '_') {
      bool other_object = false;
      if (t >= 1 && (toks[t - 1].text == "." || toks[t - 1].text == "->" ||
                     toks[t - 1].text == "::")) {
        other_object =
            !(t >= 2 && toks[t - 1].text == "->" && toks[t - 2].text == "this");
      }
      if (!other_object) {
        bool mutated = false;
        bool via_method = false;
        if (t >= 1 && (toks[t - 1].text == "++" || toks[t - 1].text == "--"))
          mutated = true;
        std::size_t j = t + 1;
        if (!mutated && j < toks.size() && toks[j].text == "[") {
          const std::size_t close = match_forward(toks, j, "[", "]");
          if (close != std::string::npos) {
            j = close + 1;
            // `m_[k]` alone counts as a table write for snapshot coverage
            // even without an assignment op (operator[] inserts).
            via_method = true;
          }
        }
        if (!mutated && j < toks.size() && is_assign_op(toks[j].text)) {
          mutated = true;
          via_method = false;
        }
        if (!mutated && j == t + 1 && j + 1 < toks.size() &&
            toks[j].text == "." && toks[j + 1].kind == Token::kIdent &&
            is_mutator_method(toks[j + 1].text) && j + 2 < toks.size() &&
            toks[j + 2].text == "(") {
          mutated = true;
          via_method = true;
        }
        if (!mutated && via_method && j < toks.size() && toks[j].text != "=")
          mutated = true;  // bare m_[k] without assignment: still an insert
        if (mutated) {
          MutationSite m;
          m.member = tok.text;
          m.line = tok.line;
          m.token = t;
          f.mutations.push_back(std::move(m));
        }
      }
    }
  }

  // Force-close any scopes left open by lexing imprecision.
  while (!stack.empty()) {
    Scope s = stack.back();
    stack.pop_back();
    if (s.kind == BraceInfo::kFunction && s.func >= 0 &&
        index.functions[s.func].body_end == 0) {
      index.functions[s.func].body_end = toks.size();
      index.functions[s.func].body_last_line =
          toks.empty() ? 0 : toks.back().line;
    }
  }
  for (PendingLock& pl : pending_locks) {
    if (pl.func < 0) continue;
    LockSite& l = index.functions[pl.func].locks[pl.lock_idx];
    if (l.scope_end == 0) l.scope_end = toks.size();
  }
}

void finish_case_arms(ProjectIndex& index) {
  for (FunctionInfo& f : index.functions) {
    for (std::size_t i = 0; i < f.cases.size(); ++i) {
      f.cases[i].arm_end =
          (i + 1 < f.cases.size()) ? f.cases[i + 1].token : f.body_end;
    }
  }
}

}  // namespace

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string code_view(const std::string& raw) {
  std::string out = raw;
  bool in_str = false, in_chr = false;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    if (in_str) {
      if (c == '\\') {
        if (i + 1 < out.size()) out[i + 1] = ' ';
        out[i] = ' ';
        ++i;
      } else if (c == '"') {
        in_str = false;
      } else {
        out[i] = ' ';
      }
    } else if (in_chr) {
      if (c == '\\') {
        if (i + 1 < out.size()) out[i + 1] = ' ';
        out[i] = ' ';
        ++i;
      } else if (c == '\'') {
        in_chr = false;
      } else {
        out[i] = ' ';
      }
    } else if (c == '"') {
      in_str = true;
    } else if (c == '\'' && i > 0 && !is_ident_char(out[i - 1])) {
      in_chr = true;
    } else if (c == '/' && i + 1 < out.size() && out[i + 1] == '/') {
      out.resize(i);
      break;
    } else if (c == '/' && i + 1 < out.size() && out[i + 1] == '*') {
      // Blank a same-line /*...*/ span (inline argument comments must not
      // hide the rest of the line from brace tracking); an unterminated
      // block comment still truncates, v1-style.
      const std::size_t close = out.find("*/", i + 2);
      if (close == std::string::npos) {
        out.resize(i);
        break;
      }
      for (std::size_t k = i; k < close + 2; ++k) out[k] = ' ';
      i = close + 1;
    }
  }
  return out;
}

ProjectIndex build_index(const std::vector<SourceFile>& files) {
  ProjectIndex index;
  index.files = &files;
  index.file_model.resize(files.size());

  for (std::size_t i = 0; i < files.size(); ++i) {
    FileModel& fm = index.file_model[i];
    fm.code.reserve(files[i].lines.size());
    for (const std::string& l : files[i].lines) fm.code.push_back(code_view(l));
    tokenize_file(fm.code, fm.tokens);
  }

  for (std::size_t i = 0; i < files.size(); ++i) {
    extract_file(index, static_cast<int>(i));
  }
  finish_case_arms(index);

  for (std::size_t i = 0; i < index.functions.size(); ++i)
    index.functions_by_name.emplace(index.functions[i].name,
                                    static_cast<int>(i));

  // Unordered-container declaration context (v1 semantics): a .cpp sees its
  // own declarations plus those of any file sharing its stem; accessor
  // names apply globally, with ordered/unordered-ambiguous names skipped.
  for (std::size_t i = 0; i < files.size(); ++i) {
    UnorderedDecls d;
    scan_unordered_decls(index.file_model[i].code, d);
    UnorderedDecls& slot = index.decls_by_stem[file_stem(files[i].path)];
    slot.vars.insert(d.vars.begin(), d.vars.end());
    slot.accessors.insert(d.accessors.begin(), d.accessors.end());
    index.global_decls.accessors.insert(d.accessors.begin(),
                                        d.accessors.end());
    index.global_decls.ordered_accessors.insert(d.ordered_accessors.begin(),
                                                d.ordered_accessors.end());
  }
  for (const std::string& name : index.global_decls.ordered_accessors)
    index.global_decls.accessors.erase(name);

  return index;
}

int resolve_call(const ProjectIndex& index, const std::string& name,
                 const std::string& prefer_class,
                 const std::string& receiver) {
  auto [lo, hi] = index.functions_by_name.equal_range(name);
  if (lo == hi) return -1;
  // A receiver other than `this` (or an explicit Class:: qualification)
  // means the target is a method of the *receiver's* class — never of the
  // caller's own class.  Without this, `order_.size()` inside RpcDedup
  // would resolve to RpcDedup::size() and fabricate lock edges.
  const bool this_call =
      receiver.empty() || receiver == "this" || receiver == prefer_class;
  int same_class = -1, same_class_count = 0;
  int any = -1, any_count = 0;
  for (auto it = lo; it != hi; ++it) {
    const FunctionInfo& f = index.functions[it->second];
    if (!this_call && f.cls == prefer_class) continue;
    if (this_call && !prefer_class.empty() && f.cls == prefer_class) {
      same_class = it->second;
      ++same_class_count;
    }
    any = it->second;
    ++any_count;
  }
  if (same_class_count == 1) return same_class;
  if (same_class_count > 1) return -1;
  if (any_count == 1) return any;
  return -1;
}

}  // namespace cosched::lint
