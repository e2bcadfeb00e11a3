"""Dependency-free C++ frontend for the BHSS analyzer.

Lowers source files into the `cpp_model` IR using the token stream from
`lexer.py`: scope tracking (namespaces / classes), function definition and
declaration extraction with overload keys, member/local variable typing
for receiver resolution, and per-body event extraction (calls,
allocations, locks, I/O, unordered iteration, RNG touches, span derefs
and contract guards).

This frontend is the always-available engine: the baked CI image and the
dev container ship gcc only (no libclang.so), yet the determinism gates
must run everywhere ctest runs. `frontend_clang.py` produces the same IR
from a real AST when libclang is installed; `--frontend=auto` prefers it.

Parsing philosophy: structural, not grammatical. We only need to be exact
about *where functions start and end*, *what they call through which
receiver*, and *which typed events occur inside them*. Constructs the
repo's style guide already bans (K&R macros, multi-declarator members,
function-try-blocks) are out of contract.
"""

from __future__ import annotations

import re
from pathlib import Path

from . import lexer
from .cpp_model import (
    EV_ADDR_ORDER,
    EV_ALLOC,
    EV_CALL,
    EV_DEREF,
    EV_GUARD,
    EV_IO,
    EV_MUTEX,
    EV_RNG,
    EV_UNORDERED,
    CodeModel,
    Event,
    FunctionInfo,
    Param,
)
from .lexer import KIND_ID, KIND_STR, Tok, match_group

# Words that can precede '(' without being a callable.
NOT_A_CALL = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "decltype",
    "noexcept", "catch", "static_assert", "typeid", "throw", "case", "new",
    "delete", "alignas", "assert", "defined", "co_return", "co_await",
    "requires", "explicit", "operator",
}

TYPE_QUALIFIER_WORDS = {
    "const", "volatile", "typename", "struct", "class", "enum", "constexpr",
    "constinit", "consteval", "static", "inline", "extern", "mutable",
    "thread_local", "register", "friend", "virtual", "explicit", "unsigned",
    "signed", "std",
}

SPAN_TYPES = {"span", "cspan", "fspan", "cspan_mut", "fspan_mut", "string_view"}
VECTOR_TYPES = {"vector", "cvec", "fvec", "string", "deque", "basic_string"}
VEC_ALLOC_METHODS = {
    "push_back", "emplace_back", "resize", "reserve", "insert", "assign",
    "append", "emplace", "shrink_to_fit",
}
MUTEX_GUARD_TYPES = {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"}
MUTEX_TYPES = {"mutex", "recursive_mutex", "shared_mutex", "timed_mutex",
               "condition_variable", "condition_variable_any"}
IO_STREAM_TYPES = {"ofstream", "ifstream", "fstream", "stringstream",
                   "ostringstream", "istringstream"}
IO_CALLS = {
    "printf", "fprintf", "sprintf", "snprintf", "puts", "fputs", "fputc",
    "putchar", "fopen", "fclose", "fwrite", "fread", "fflush", "fsync",
    "fseek", "getline", "system", "perror",
}
IO_IDS = {"cout", "cerr", "clog"}
RNG_ENGINE_TYPES = {
    "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "ranlux24", "ranlux48", "knuth_b",
    "random_device",
}
ACCESS_SPECIFIERS = {"public", "protected", "private"}
UNORDERED_TYPES = {"unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset"}
CONTRACT_MACROS = {"BHSS_REQUIRE", "BHSS_ENSURE", "BHSS_DEBUG_ASSERT"}
ALLOC_CALLS = {"malloc", "calloc", "realloc", "free", "aligned_alloc",
               "make_unique", "make_shared", "strdup"}
HOT_ANNOTATION = "BHSS_HOT"

_SEEDISH = re.compile(r"seed", re.IGNORECASE)


class _Scope:
    __slots__ = ("kind", "name")

    def __init__(self, kind: str, name: str) -> None:
        self.kind = kind  # 'ns' | 'class'
        self.name = name


def parse_file(model: CodeModel, path: Path, rel: str) -> None:
    text = path.read_text(encoding="utf-8", errors="replace")
    toks = lexer.tokenize(text)
    _Parser(model, toks, rel, path.suffix in (".hpp", ".h", ".hh", ".hxx")).run()


class _Parser:
    def __init__(self, model: CodeModel, toks: list[Tok], rel: str, is_header: bool):
        self.model = model
        self.toks = toks
        self.rel = rel
        self.is_header = is_header
        self.scopes: list[_Scope] = []

    # -------------------------------------------------------------- helpers

    def _ns_path(self) -> list[str]:
        return [s.name for s in self.scopes if s.name]

    def _cur_class(self) -> str:
        for s in reversed(self.scopes):
            if s.kind == "class":
                return s.name
        return ""

    def _skip_to(self, i: int, stop: str) -> int:
        """Advance past the next top-level `stop` token, balancing groups."""
        toks = self.toks
        while i < len(toks):
            t = toks[i].text
            if t == stop:
                return i + 1
            if t in "({[":
                i = match_group(toks, i) + 1
                continue
            if t == "}":  # unbalanced: let the main loop handle scope pops
                return i
            i += 1
        return i

    # ----------------------------------------------------------- main loop

    def run(self) -> None:
        toks = self.toks
        i = 0
        decl_start = 0
        n = len(toks)
        while i < n:
            t = toks[i]
            txt = t.text
            if txt == "template":
                # Skip the parameter list; the declaration itself continues.
                if i + 1 < n and toks[i + 1].text == "<":
                    i = self._skip_angles(i + 1)
                else:
                    i += 1
                continue
            if txt == "namespace":
                i, decl_start = self._handle_namespace(i)
                continue
            if txt in ("class", "struct", "union") and self._starts_decl(decl_start, i):
                i, decl_start = self._handle_class(i)
                continue
            if txt == "enum":
                i = self._skip_to(i, ";")
                decl_start = i
                continue
            if txt in ("using", "typedef", "static_assert", "friend", "asm"):
                i = self._skip_to(i, ";")
                decl_start = i
                continue
            if txt == "extern" and i + 2 < n and toks[i + 1].kind == KIND_STR:
                if toks[i + 2].text == "{":
                    self.scopes.append(_Scope("ns", ""))
                    i += 3
                else:
                    i += 2
                decl_start = i
                continue
            if txt == ";":
                self._maybe_member_decl(decl_start, i)
                i += 1
                decl_start = i
                continue
            if txt == "}":
                if self.scopes:
                    self.scopes.pop()
                i += 1
                # `};` after a class — consume silently via the ';' branch.
                decl_start = i
                continue
            if txt == "{":
                # Brace at declaration scope that is not a function body we
                # recognised (e.g. a braced initializer): skip it whole.
                i = match_group(toks, i) + 1
                decl_start = i
                continue
            if txt == "(":
                ni, nd = self._try_function(decl_start, i)
                if ni is not None:
                    i, decl_start = ni, nd
                    continue
                i = match_group(toks, i) + 1
                continue
            i += 1

    def _starts_decl(self, decl_start: int, i: int) -> bool:
        """class/struct begins a declaration only when it is (close to) the
        first word — not when used as an elaborated type inside one."""
        for j in range(decl_start, i):
            if self.toks[j].kind == KIND_ID and self.toks[j].text not in (
                "template", "inline", "constexpr", "static", "friend", "typedef",
            ):
                return False
            if self.toks[j].text in (";", "}", "{"):
                return False
        return True

    def _skip_angles(self, i: int) -> int:
        """Skip a <...> group starting at i ('<'), guarding against
        non-template '<'."""
        depth = 0
        toks = self.toks
        while i < len(toks):
            t = toks[i].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif t in ("{", ";"):
                return i  # bail out: was a comparison after all
            elif t in "([":
                i = match_group(toks, i)
            i += 1
        return i

    def _handle_namespace(self, i: int) -> tuple[int, int]:
        toks = self.toks
        j = i + 1
        parts: list[str] = []
        while j < len(toks) and (toks[j].kind == KIND_ID or toks[j].text == "::"):
            if toks[j].kind == KIND_ID:
                parts.append(toks[j].text)
            j += 1
        if j < len(toks) and toks[j].text == "{":
            for p in parts or [""]:
                self.scopes.append(_Scope("ns", p))
            if not parts:
                pass
            elif len(parts) > 1:
                # One scope per component was pushed; matching '}' pops only
                # one — compensate by treating A::B as a single scope.
                for _ in range(len(parts) - 1):
                    self.scopes.pop()
                self.scopes[-1].name = "::".join(parts)
            return j + 1, j + 1
        if not parts:
            # anonymous namespace `namespace {`
            if j < len(toks) and toks[j].text == "{":
                self.scopes.append(_Scope("ns", ""))
                return j + 1, j + 1
        k = self._skip_to(j, ";")
        return k, k

    def _handle_class(self, i: int) -> tuple[int, int]:
        toks = self.toks
        j = i + 1
        name = ""
        # Skip attributes / alignas.
        while j < len(toks):
            t = toks[j]
            if t.text == "[":
                j = match_group(toks, j) + 1
                continue
            if t.text == "alignas" and j + 1 < len(toks) and toks[j + 1].text == "(":
                j = match_group(toks, j + 1) + 1
                continue
            if t.kind == KIND_ID and t.text != "final":
                name = t.text
                j += 1
                continue
            break
        # Find what terminates the class-head: '{' (definition), ';' (fwd).
        while j < len(toks) and toks[j].text not in ("{", ";"):
            if toks[j].text == "<":
                j = self._skip_angles(j)
                continue
            if toks[j].text == "(":
                j = match_group(toks, j) + 1
                continue
            j += 1
        if j < len(toks) and toks[j].text == "{":
            self.model.add_class(name or "<anon>")
            self.scopes.append(_Scope("class", name or "<anon>"))
            return j + 1, j + 1
        return j + 1, j + 1

    # -------------------------------------------------- member declarations

    def _maybe_member_decl(self, decl_start: int, semi: int) -> None:
        """Register `Type name_;` members met at class scope (no parens)."""
        if not self.scopes or self.scopes[-1].kind != "class":
            return
        toks = self.toks
        head = toks[decl_start:semi]
        if not head or any(t.text in ("(", ")") for t in head):
            return
        # The first member of a section arrives with its access label
        # (`private: Engine rng_;`); the label's colon is not a bit-field.
        if len(head) > 2 and head[0].text in ACCESS_SPECIFIERS and head[1].text == ":":
            head = head[2:]
        # Drop initializers: `int x = 3;` / `cvec v{};` / bitfields.
        for stop_idx, t in enumerate(head):
            if t.text in ("=", "{", ":") and not (t.text == ":" and head[stop_idx - 1].text == ":"):
                head = head[:stop_idx]
                break
        if len(head) < 2 or head[-1].kind != KIND_ID:
            return
        name = head[-1].text
        sketch = _type_sketch(head[:-1])
        if not sketch:
            return
        cls = self._cur_class()
        self.model.add_member(cls, name, sketch)
        base = sketch.rstrip("*")
        if base in RNG_ENGINE_TYPES:
            self.model_file_event(EV_RNG, head[-1].line,
                                  f"member '{name}' of RNG engine type '{base}'")
        if base in MUTEX_TYPES:
            # Member mutexes are fine per se; they matter when locked (H1).
            pass

    def model_file_event(self, kind: str, line: int, detail: str) -> None:
        events = getattr(self.model, "file_events", None)
        if events is None:
            events = []
            self.model.file_events = events  # type: ignore[attr-defined]
        events.append((self.rel, line, kind, detail))

    # ------------------------------------------------- function recognition

    def _try_function(self, decl_start: int, lp: int) -> tuple[int | None, int]:
        """Called with toks[lp] == '('. Returns (new_index, new_decl_start)
        when a function declaration/definition was consumed, else (None, _)."""
        toks = self.toks
        k = lp - 1
        if k < decl_start:
            return None, decl_start
        # --- name (identifier, operator cluster, destructor) ---
        name = ""
        if toks[k].kind == KIND_ID:
            name = toks[k].text
            k -= 1
            if k >= decl_start and toks[k].text == "operator":
                name = "operator " + name  # conversion operator
                k -= 1
            elif k >= decl_start and toks[k].text == "~":
                name = "~" + name
                k -= 1
        else:
            cluster = []
            while k >= decl_start and toks[k].kind == "p" and toks[k].text not in ("(", ")", "{", "}", ";", ","):
                cluster.insert(0, toks[k].text)
                k -= 1
            if k >= decl_start and toks[k].text == "operator" and cluster:
                name = "operator" + "".join(cluster)
                k -= 1
            else:
                return None, decl_start
        if name in NOT_A_CALL or name in TYPE_QUALIFIER_WORDS:
            return None, decl_start
        # --- explicit qualifier chain: A::B::name ---
        qual_parts: list[str] = []
        while k - 1 >= decl_start and toks[k].text == "::" and toks[k - 1].kind == KIND_ID:
            qual_parts.insert(0, toks[k - 1].text)
            k -= 2
        head = toks[decl_start:lp]
        # A '=' in the head means variable-with-initializer, not a function.
        if any(t.text == "=" for t in head):
            return None, decl_start
        rp = match_group(toks, lp)
        # --- trailers ---
        j = rp + 1
        n = len(toks)
        while j < n:
            t = toks[j].text
            if t in ("const", "noexcept", "override", "final", "&", "mutable", "throw"):
                j += 1
                if j < n and toks[j].text == "(" and t in ("noexcept", "throw"):
                    j = match_group(toks, j) + 1
                continue
            if t == "&" or t == "&&":
                j += 1
                continue
            if t == "[":
                j = match_group(toks, j) + 1
                continue
            if t == "->":  # trailing return type
                j += 1
                while j < n and toks[j].text not in ("{", ";", "="):
                    if toks[j].text == "<":
                        j = self._skip_angles(j)
                        continue
                    if toks[j].text in "([":
                        j = match_group(toks, j) + 1
                        continue
                    j += 1
                continue
            break
        if j >= n:
            return None, decl_start
        term = toks[j].text
        is_def = False
        body_open = -1
        if term == "{":
            is_def = True
            body_open = j
        elif term == ";":
            pass
        elif term == "=":
            # = default / = delete / = 0;
            j = self._skip_to(j, ";") - 1
            if j < 0:
                return None, decl_start
        elif term == ":":
            # Constructor initializer list: scan to the body '{'.
            jj = j + 1
            while jj < n:
                tt = toks[jj].text
                if tt == "(":
                    jj = match_group(toks, jj) + 1
                    continue
                if tt == "{":
                    if toks[jj - 1].kind == KIND_ID:
                        jj = match_group(toks, jj) + 1  # member brace-init
                        continue
                    is_def = True
                    body_open = jj
                    break
                if tt == ";":
                    return None, decl_start
                jj += 1
            if not is_def:
                return None, decl_start
            j = jj
        else:
            return None, decl_start

        # A bare call at namespace scope (macro invocation etc.) has no
        # return type: require at least one head token (type/attr/ctor name
        # match) unless it's a constructor/destructor of the current class.
        cur_cls = self._cur_class()
        is_ctor_like = (name == cur_cls or name == "~" + cur_cls
                        or (qual_parts and name in (qual_parts[-1], "~" + qual_parts[-1])))
        head_sig = [t for t in toks[decl_start:k + 1] if t.text not in ("inline", "static", "constexpr", "virtual", "explicit", "friend", "[", "]")]
        if not head_sig and not is_ctor_like:
            return None, decl_start

        hot = any(t.text == HOT_ANNOTATION for t in head) or _has_annotate(head)
        params = _parse_params(toks, lp, rp)
        cls = cur_cls
        if qual_parts:
            last = qual_parts[-1]
            if last[:1].isupper():
                cls = last
        # _ns_path() already includes the enclosing class scope for
        # declarations inside a class body; out-of-class definitions carry
        # the class in their explicit qualifier instead.
        qname_parts = [p for p in self._ns_path() if p]
        if qual_parts:
            qname_parts += qual_parts
        qname_parts.append(name)
        fn = FunctionInfo(
            qname="::".join(qname_parts),
            file=self.rel,
            line=toks[lp].line,
            params=params,
            cls=cls,
            hot=hot,
            has_body=is_def,
            declared_in_header=self.is_header,
        )
        if is_def:
            body_close = match_group(toks, body_open)
            _extract_events(fn, toks, body_open, body_close, self.model)
            self.model.add_function(fn)
            return body_close + 1, body_close + 1
        self.model.add_function(fn)
        end = self._skip_to(j, ";") if term not in (";",) else j + 1
        return end, end


def _has_annotate(head: list[Tok]) -> bool:
    """Recognise a literal [[clang::annotate("bhss_hot")]] (the clang
    frontend sees the attribute; the lite frontend sees these tokens)."""
    for idx, t in enumerate(head):
        if t.kind == KIND_ID and t.text == "annotate":
            return True  # string payload was blanked by the lexer; macro names the intent
    return False


# ------------------------------------------------------------- param parsing

def _parse_params(toks: list[Tok], lp: int, rp: int) -> list[Param]:
    inner = toks[lp + 1 : rp]
    if not inner or (len(inner) == 1 and inner[0].text == "void"):
        return []
    chunks: list[list[Tok]] = [[]]
    depth = 0
    angle = 0
    for idx, t in enumerate(inner):
        if t.text in "([{":
            depth += 1
        elif t.text in ")]}":
            depth -= 1
        elif t.text == "<" and idx > 0 and inner[idx - 1].kind == KIND_ID:
            angle += 1
        elif t.text == ">" and angle > 0:
            angle -= 1
        elif t.text == "," and depth == 0 and angle == 0:
            chunks.append([])
            continue
        chunks[-1].append(t)
    params: list[Param] = []
    for chunk in chunks:
        if not chunk:
            continue
        for stop_idx, t in enumerate(chunk):
            if t.text == "=":
                chunk = chunk[:stop_idx]
                break
        if not chunk:
            continue
        name = ""
        type_toks = chunk
        if len(chunk) >= 2 and chunk[-1].kind == KIND_ID:
            name = chunk[-1].text
            type_toks = chunk[:-1]
        sketch = _type_sketch(type_toks)
        base = sketch.rstrip("*")
        params.append(
            Param(
                name=name,
                sketch=sketch,
                is_span=base in SPAN_TYPES,
                is_pointer=sketch.endswith("*"),
                is_vector=base in VECTOR_TYPES,
            )
        )
    return params


def _type_sketch(type_toks: list[Tok]) -> str:
    """Normalized base type: last top-level identifier outside template
    args, with a '*' suffix for pointers."""
    base = ""
    angle = 0
    pointer = False
    for idx, t in enumerate(type_toks):
        if t.text == "<" and idx > 0 and type_toks[idx - 1].kind == KIND_ID:
            angle += 1
            continue
        if t.text == ">":
            if angle > 0:
                angle -= 1
            continue
        if angle > 0:
            continue
        if t.text == "*":
            pointer = True
        if t.kind == KIND_ID and t.text not in TYPE_QUALIFIER_WORDS:
            base = t.text
            pointer = False
    return base + ("*" if pointer else "")


# ------------------------------------------------------------ body analysis

_LOCAL_DECL_STARTERS = {";", "{", "}", "(", ","}


def _extract_events(fn: FunctionInfo, toks: list[Tok], body_open: int,
                    body_close: int, model: CodeModel) -> None:
    ev = fn.events
    guard_until = -1  # inside a BHSS_* contract group: derefs count as guards
    span_params = [p for p in fn.params if (p.is_span or p.is_pointer) and p.name]
    span_names = {p.name for p in span_params}
    time_calls: list[int] = []
    seedish_seen = False

    j = body_open + 1
    while j < body_close:
        t = toks[j]
        txt = t.text
        kind = t.kind

        if kind == KIND_ID and _SEEDISH.search(txt):
            seedish_seen = True

        nxt = toks[j + 1].text if j + 1 < body_close else ""

        # ---- contract macros: guard + keep scanning their args as guards
        if txt in CONTRACT_MACROS and nxt == "(":
            close = match_group(toks, j + 1)
            group_names = {x.text for x in toks[j + 2 : close] if x.kind == KIND_ID}
            for p in span_params:
                if p.name in group_names:
                    ev.append(Event(EV_GUARD, t.line, detail=txt, param=p.name))
            guard_until = close
            j += 2
            continue

        # ---- range-for over unordered containers
        if txt == "for" and nxt == "(":
            close = match_group(toks, j + 1)
            colon = -1
            depth = 0
            for x in range(j + 2, close):
                xt = toks[x].text
                if xt in "([{":
                    depth += 1
                elif xt in ")]}":
                    depth -= 1
                elif xt == ":" and depth == 0:
                    colon = x
                    break
            if colon != -1:
                expr = toks[colon + 1 : close]
                expr_ids = [x.text for x in expr if x.kind == KIND_ID]
                iter_type = ""
                if expr_ids:
                    iter_type = model.receiver_type(fn, expr_ids[-1]).rstrip("*")
                if iter_type in UNORDERED_TYPES or any(e in UNORDERED_TYPES for e in expr_ids):
                    ev.append(Event(EV_UNORDERED, t.line,
                                    detail=f"range-for over unordered container "
                                           f"'{' '.join(expr_ids) or '?'}'"))
            j += 1
            continue

        # ---- new / delete expressions
        if txt == "new" and kind == KIND_ID:
            prev = toks[j - 1].text if j > body_open else ""
            if prev == "operator":
                j += 1
                continue
            if nxt == "(":
                close = match_group(toks, j + 1)
                group = {x.text for x in toks[j + 1 : close]}
                if "nothrow" in group:
                    ev.append(Event(EV_ALLOC, t.line, detail="heap new (std::nothrow)"))
                # else: placement-new — constructs in existing storage, no
                # heap allocation.
                j = close + 1
                continue
            ev.append(Event(EV_ALLOC, t.line, detail="heap new"))
            j += 1
            continue
        if txt == "delete" and kind == KIND_ID:
            prev = toks[j - 1].text if j > body_open else ""
            if prev not in ("operator", "="):
                ev.append(Event(EV_ALLOC, t.line, detail="delete expression"))
            j += 1
            continue

        # ---- plain identifiers of interest
        if kind == KIND_ID and txt in IO_IDS:
            ev.append(Event(EV_IO, t.line, detail=f"std::{txt}"))
            j += 1
            continue
        if kind == KIND_ID and txt == "random_device":
            ev.append(Event(EV_RNG, t.line, detail="std::random_device"))
            j += 1
            continue
        if kind == KIND_ID and txt in RNG_ENGINE_TYPES and nxt != "(":
            ev.append(Event(EV_RNG, t.line, detail=f"std RNG engine '{txt}'"))
            j += 1
            continue
        if txt == "reinterpret_cast" and nxt == "<":
            close = j + 1
            depth = 0
            while close < body_close:
                if toks[close].text == "<":
                    depth += 1
                elif toks[close].text == ">":
                    depth -= 1
                    if depth == 0:
                        break
                close += 1
            inner = {x.text for x in toks[j + 1 : close]}
            if "uintptr_t" in inner or "intptr_t" in inner:
                ev.append(Event(EV_ADDR_ORDER, t.line,
                                detail="pointer-to-integer cast (address-dependent value)"))
            j = close + 1
            continue

        # ---- local variable declarations (registers receiver types)
        if kind == KIND_ID and j > body_open and toks[j - 1].text in _LOCAL_DECL_STARTERS:
            consumed = _try_local_decl(fn, toks, j, body_close, ev)
            if consumed:
                j = consumed
                continue

        # ---- calls
        if kind == KIND_ID and nxt == "(" and txt not in NOT_A_CALL:
            receiver = ""
            qualifier = ""
            if j >= body_open + 2:
                p1 = toks[j - 1].text
                if p1 in (".", "->") and toks[j - 2].kind == KIND_ID:
                    receiver = toks[j - 2].text
                elif p1 == "::" and toks[j - 2].kind == KIND_ID:
                    parts = [toks[j - 2].text]
                    k = j - 3
                    while k - 1 > body_open and toks[k].text == "::" and toks[k - 1].kind == KIND_ID:
                        parts.insert(0, toks[k - 1].text)
                        k -= 2
                    qualifier = "::".join(parts)
            if txt.isupper() and "_" in txt:
                j += 1  # macro invocation (BHSS_TRACE_SCOPE etc.) — opaque
                continue
            if txt in ALLOC_CALLS and qualifier in ("", "std"):
                ev.append(Event(EV_ALLOC, t.line, detail=f"{txt}()"))
            elif txt in VEC_ALLOC_METHODS and receiver:
                rtype = model.receiver_type(fn, receiver).rstrip("*")
                growing = rtype in VECTOR_TYPES or rtype in UNORDERED_TYPES or rtype in ("map", "set", "auto", "")
                if growing:
                    ev.append(Event(EV_ALLOC, t.line,
                                    detail=f"{receiver}.{txt}() may (re)allocate"))
            elif txt in ("lock", "unlock", "try_lock") and receiver:
                ev.append(Event(EV_MUTEX, t.line, detail=f"{receiver}.{txt}()"))
            elif txt in IO_CALLS and qualifier in ("", "std"):
                ev.append(Event(EV_IO, t.line, detail=f"{txt}()"))
            elif txt in ("rand", "srand") and qualifier in ("", "std"):
                ev.append(Event(EV_RNG, t.line, detail=f"{txt}()"))
            elif txt == "time" and qualifier in ("", "std"):
                time_calls.append(t.line)
            elif txt in ("begin", "end", "cbegin", "cend") and receiver:
                rtype = model.receiver_type(fn, receiver).rstrip("*")
                if rtype in UNORDERED_TYPES:
                    ev.append(Event(EV_UNORDERED, t.line,
                                    detail=f"iteration over unordered container '{receiver}'"))
            elif txt in VECTOR_TYPES:
                close = match_group(toks, j + 1)
                if close > j + 2:
                    ev.append(Event(EV_ALLOC, t.line, detail=f"temporary {txt}(...)"))
            else:
                ev.append(Event(EV_CALL, t.line, callee=txt,
                                qualifier=qualifier, receiver=receiver))
            j += 1
            continue

        # ---- span parameter deref / guard bookkeeping (C1)
        if kind == KIND_ID and txt in span_names:
            in_guard = j <= guard_until
            if nxt == "." and j + 2 < body_close:
                mem = toks[j + 2].text
                if mem in ("size", "size_bytes", "empty", "length"):
                    ev.append(Event(EV_GUARD, t.line, detail=f"{txt}.{mem}()", param=txt))
                elif mem in ("front", "back") or (
                    mem == "data" and j + 4 < body_close and toks[j + 4].text == "["
                ):
                    ev.append(Event(EV_GUARD if in_guard else EV_DEREF, t.line,
                                    detail=f"{txt}.{mem}()", param=txt))
            elif nxt == "[":
                ev.append(Event(EV_GUARD if in_guard else EV_DEREF, t.line,
                                detail=f"{txt}[...]", param=txt))
            elif (nxt in ("!", "=") and j + 3 < body_close
                  and toks[j + 2].text == "=" and toks[j + 3].text == "nullptr"):
                ev.append(Event(EV_GUARD, t.line, detail=f"{txt} {nxt}= nullptr", param=txt))
            elif toks[j - 1].text == "!" and j - 1 > body_open:
                ev.append(Event(EV_GUARD, t.line, detail=f"!{txt} null check", param=txt))
            elif toks[j - 1].text == "*" and j - 1 > body_open:
                pp = toks[j - 2]
                # `* p` is a deref unless pp holds a value (then it's a
                # multiplication). Keywords like `return` are id-kind but
                # valueless, so `return *p` still counts.
                valueless_kw = pp.text in ("return", "throw", "case", "co_return")
                if valueless_kw or (pp.kind != KIND_ID and pp.kind != "num"
                                    and pp.text not in (")", "]")):
                    ev.append(Event(EV_GUARD if in_guard else EV_DEREF, t.line,
                                    detail=f"*{txt}", param=txt))
            j += 1
            continue

        j += 1

    if time_calls and seedish_seen:
        for line in time_calls:
            ev.append(Event(EV_RNG, line,
                            detail="time()-derived value in a seed context"))


def _try_local_decl(fn: FunctionInfo, toks: list[Tok], j: int, body_close: int,
                    ev: list[Event]) -> int | None:
    """Match `[const|static|...]* Qualified::Type[<...>] [cv/ref]* name` at j.
    Registers the local's type; emits alloc/mutex/io/rng/unordered events
    implied by the declaration. Returns the index of `name` + 1 (scanning
    resumes inside any initializer), or None if no declaration matched."""
    k = j
    base = ""
    saw_type = False
    while k < body_close:
        t = toks[k]
        if t.kind == KIND_ID and t.text in ("const", "static", "thread_local",
                                            "constexpr", "volatile", "typename"):
            k += 1
            continue
        break
    # Qualified type chain.
    while k < body_close:
        t = toks[k]
        if t.kind != KIND_ID:
            break
        base = t.text
        k += 1
        if k < body_close and toks[k].text == "<":
            depth = 0
            while k < body_close:
                if toks[k].text == "<":
                    depth += 1
                elif toks[k].text == ">":
                    depth -= 1
                    if depth == 0:
                        k += 1
                        break
                elif toks[k].text in (";", "{", ")"):
                    return None  # comparison, not template args
                k += 1
        if k < body_close and toks[k].text == "::":
            k += 1
            continue
        break
    if not base or base in NOT_A_CALL:
        return None
    # cv/ref/pointer between type and name.
    while k < body_close and toks[k].text in ("&", "*", "const"):
        k += 1
    if k >= body_close or toks[k].kind != KIND_ID:
        return None
    name_tok = toks[k]
    after = toks[k + 1].text if k + 1 < body_close else ""
    if after not in ("=", "(", "{", ";", ","):
        return None
    if base in TYPE_QUALIFIER_WORDS or base == "auto" and after not in ("=",):
        pass
    fn.local_types[name_tok.text] = base
    line = name_tok.line
    if base in MUTEX_GUARD_TYPES or base in MUTEX_TYPES:
        ev.append(Event(EV_MUTEX, line, detail=f"'{name_tok.text}' is a {base}"))
    elif base in RNG_ENGINE_TYPES:
        ev.append(Event(EV_RNG, line, detail=f"local std RNG engine '{base}'"))
    elif base in IO_STREAM_TYPES:
        ev.append(Event(EV_IO, line, detail=f"'{name_tok.text}' is a {base}"))
    elif base in VECTOR_TYPES and after in ("(", "{"):
        close = match_group(toks, k + 1)
        if close > k + 2:
            ev.append(Event(EV_ALLOC, line,
                            detail=f"'{name_tok.text}' ({base}) constructed with contents"))
    return k + 1
