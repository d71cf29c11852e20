"""Surface syntax for PICL.

PICL is a first-order imperative language over heap objects: fields are
declared at top level, procedures take exactly one parameter and return
exactly one variable, and `main` is the entry block.  Values are references;
`null` is the only literal.  Procedure parameters and returns carry optional
nullness annotations: `@NonNull`, `@Nullable`, or `@?` (equivalently no
annotation at all) for "unknown, check at run time if needed".

Grammar (between tokens: blanks, which are exactly space, tab, CR and LF,
and `//` comments, which run to the end of the line):

    IDENT     := a word, not a keyword: its first character passes
                 `str.isalpha` or is "_", the rest pass `str.isalnum` or are "_"
    program   := (fielddecl | procdecl)* "main" block
    fielddecl := "field" IDENT ";"
    procdecl  := "proc" IDENT annot? "(" IDENT annot? ")" block
    annot     := "@" ("NonNull" | "Nullable" | "?")
    block     := "{" stmt* "}"
    stmt      := "skip" ";"
               | "var" IDENT ";"
               | IDENT ":=" expr ";"
               | IDENT "." IDENT ":=" IDENT ";"
               | "if" "(" cond ")" block "else" block
               | "while" "(" cond ")" block
               | "return" IDENT ";"
    cond      := expr ("==" | "!=") "null"
    expr      := "null" | IDENT | expr "&&" expr | expr "||" expr
               | expr "." IDENT | "new" "{" IDENT ("," IDENT)* "}"
               | IDENT "(" expr ")"

`&&` binds tighter than `||`; both are left-associative; field access binds
tightest.  `main` must end with `return x;` and may not return anywhere
else; every path through a procedure body must end in a return, and no
statement may follow one (nor follow an if/else whose branches both return).
The parser judges this placement as it reads each body, with no second walk
over the tree, and reports it once the body (for `main`, the whole input)
has parsed without a syntax error.

The lexer scans the source one line at a time, up to each "\n", with one
compiled regex: one match per token, with the blanks before it.  A column
counts the code points before the token on its line, plus one.  The lexer
gives the token texts, their lines and their columns as three parallel
lists, ending with end of input, whose text is "".  Each distinct text is
one string object per lex, so the tree and the graph lowered from it share
one string per name.  A token's kind follows from its text: KEYWORDS,
PUNCTUATION, or else an identifier.  The parser reads the lists by index and
builds a (line, col) tuple only where a node or an error takes one: every
node's `pos` is that of its first token (for `&&`, `||` and field access,
the operator; for a procedure, `proc`).

Blocks and call arguments nest at most MAX_NESTING levels deep, counted
together: a body is one level, each block inside it and each call argument
one more.  Deeper input is a ParseError at the `{` or `(` that opens the
first level too many, so no later pass recurses past that depth.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .lattice import GradAbst
from .record import Record, field

KEYWORDS = frozenset(
    {
        "field",
        "proc",
        "main",
        "var",
        "skip",
        "if",
        "else",
        "while",
        "return",
        "new",
        "null",
    }
)

# The deepest nesting of blocks and call arguments, counted together.
MAX_NESTING = 128

ANNOTATION_WORDS = {
    "NonNull": GradAbst.NONNULL,
    "Nullable": GradAbst.NULLABLE,
    "?": GradAbst.UNKNOWN,
}


class ParseError(Exception):
    """Syntax or structural error, with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Diagnostic(Record, frozen=True):
    """A surface-check finding.  severity is 'error' or 'note'."""

    severity: str
    message: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.severity}: {self.message}"


def _pos_field() -> tuple[int, int]:
    # Positions never participate in structural equality: two parses of the
    # same program compare equal even if rendered with different layout.
    return field(default=(0, 0), compare=False, repr=False)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class ENull(Record, frozen=True):
    pos: tuple[int, int] = _pos_field()


class EVar(Record, frozen=True):
    name: str
    pos: tuple[int, int] = _pos_field()


class EAnd(Record, frozen=True):
    left: "Expr"
    right: "Expr"
    pos: tuple[int, int] = _pos_field()


class EOr(Record, frozen=True):
    left: "Expr"
    right: "Expr"
    pos: tuple[int, int] = _pos_field()


class EField(Record, frozen=True):
    obj: "Expr"
    fieldname: str
    pos: tuple[int, int] = _pos_field()


class ENew(Record, frozen=True):
    fields: tuple[str, ...]
    pos: tuple[int, int] = _pos_field()


class ECall(Record, frozen=True):
    proc: str
    arg: "Expr"
    pos: tuple[int, int] = _pos_field()


Expr = Union[ENull, EVar, EAnd, EOr, EField, ENew, ECall]


class SSkip(Record, frozen=True):
    pos: tuple[int, int] = _pos_field()


class SDecl(Record, frozen=True):
    name: str
    pos: tuple[int, int] = _pos_field()


class SAssign(Record, frozen=True):
    target: str
    expr: Expr
    pos: tuple[int, int] = _pos_field()


class SFieldAssign(Record, frozen=True):
    obj: str
    fieldname: str
    source: str
    pos: tuple[int, int] = _pos_field()


class SIf(Record, frozen=True):
    op: str  # "==" or "!="
    cond: Expr
    then: tuple["Stmt", ...]
    els: tuple["Stmt", ...]
    pos: tuple[int, int] = _pos_field()


class SWhile(Record, frozen=True):
    op: str
    cond: Expr
    body: tuple["Stmt", ...]
    pos: tuple[int, int] = _pos_field()


class SReturn(Record, frozen=True):
    name: str
    pos: tuple[int, int] = _pos_field()


Stmt = Union[SSkip, SDecl, SAssign, SFieldAssign, SIf, SWhile, SReturn]
Block = tuple[Stmt, ...]


class ProcDecl(Record, frozen=True):
    name: str
    ret_ann: GradAbst
    param: str
    param_ann: GradAbst
    body: Block
    pos: tuple[int, int] = _pos_field()


class FieldDecl(Record, frozen=True):
    name: str
    pos: tuple[int, int] = _pos_field()


class Program(Record, frozen=True):
    fields: tuple[FieldDecl, ...]
    procs: tuple[ProcDecl, ...]
    main: Block
    main_pos: tuple[int, int] = _pos_field()

    @property
    def field_names(self) -> frozenset[str]:
        return frozenset(f.name for f in self.fields)

    @property
    def proc_map(self) -> dict[str, ProcDecl]:
        return {p.name: p for p in self.procs}


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

PUNCTUATION = frozenset({":=", "==", "!=", "&&", "||", *".;,{}()@?"})

# One match per token, with the blanks before it.  The second group holds the
# common tokens: punctuation (two characters before one) or a word that starts
# with an ASCII letter or `_`.  The third holds the rare ones, told apart after
# the match: any other word, a comment, or any other character, which is an
# error.  `\w` is exactly `str.isalnum()` or `_`, and a word must start with
# `str.isalpha()` or `_` (not `1`, `²` or `½`), which only the rare words need
# checked; no character outside `\w` passes `str.isalpha()`.  Blanks that end
# a line match on their own, with every group empty, which is tried only where
# a token match fails; without that alternative every position in them would
# start a match that fails, quadratic in their length.  Three groups, not one
# per kind, keep the tuple that `findall` builds per token small.
_TOKEN_RE = re.compile(r"([ \t\r]*)(?:(:=|==|!=|&&|\|\||[.;,{}()@?]|[A-Za-z_]\w*)|(\w+|//.*|[^ \t\r]))|[ \t\r]+$")

Pos = tuple[int, int]


def _lex(src: str) -> tuple[list[str], list[int], list[int]]:
    """Token texts, lines and columns, in parallel lists ending at end of input, text ""."""
    texts: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    add_text, add_line, add_col = texts.append, lines.append, cols.append
    # A regex match makes a new string per token; keep the first of each text.
    intern = {}.setdefault
    find, findall = src.find, _TOKEN_RE.findall
    lineno, start, size = 0, 0, len(src)
    # Each line is scanned where it lies in src: slicing the lines out would
    # hold a second copy of the source while the tokens are built.
    while start <= size:
        lineno += 1
        stop = find("\n", start)
        if stop < 0:
            stop = size
        col, end = 1, stop - start + 1
        for blanks, text, rare in findall(src, start, stop):
            col += len(blanks)
            if not text:
                if not rare:
                    break  # blanks that end the line
                if rare.startswith("//"):
                    # A comment's characters advance no column: end of input
                    # after a trailing comment sits where the comment starts.
                    end = col
                    break
                if not rare[0].isalpha():
                    raise ParseError(f"unexpected character {rare[0]!r}", lineno, col)
                text = rare
            add_text(intern(text, text))
            add_line(lineno)
            add_col(col)
            col += len(text)
        start = stop + 1
    add_text("")
    add_line(lineno)
    add_col(end)
    return texts, lines, cols


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# The texts that are not identifiers: keywords, punctuation and end of input.
_NOT_IDENT = KEYWORDS | PUNCTUATION | {""}


class _Parser:
    """Recursive descent over the lexer's lists, read by index.

    No read needs a bounds check.  The parser looks one token ahead only from
    an identifier, which end of input always follows, and steps past end of
    input only in a condition, where it then fails at once.
    """

    def __init__(self, texts: list[str], lines: list[int], cols: list[int]):
        self.texts = texts
        self.lines = lines
        self.cols = cols
        self.i = 0
        # Return placement, judged as the statements are parsed: where the
        # first statement is that follows one after which every path has
        # returned, and the first `return`.  A procedure raises on the former,
        # so it is None at the start of each body; `program` resets the latter
        # for main.
        self.unreachable: Optional[Pos] = None
        self.first_return: Optional[SReturn] = None
        self.depth = 0  # blocks and call arguments open around the next token

    def at(self, i: int) -> Pos:
        return self.lines[i], self.cols[i]

    def nest(self, opening: int) -> None:
        """Open one more level at the token with index opening."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(f"blocks and call arguments nest deeper than {MAX_NESTING} levels", self.at(opening))

    def fail(self, message: str, pos: Optional[Pos] = None) -> ParseError:
        return ParseError(message, *(pos or self.at(self.i)))

    def expected(self, what: str) -> ParseError:
        text = self.texts[self.i]
        return self.fail(f"expected {what}, found {text!r}" if text else f"expected {what}")

    # A fixed token (punctuation or keyword) is known by its text alone: no
    # identifier spells a keyword or punctuation.  Returns the token's index.
    def expect(self, text: str) -> int:
        i = self.i
        if self.texts[i] != text:
            raise self.expected(repr(text))
        self.i = i + 1
        return i

    def expect_ident(self, what: str) -> str:
        i = self.i
        text = self.texts[i]
        if text in _NOT_IDENT:
            raise self.expected(what)
        self.i = i + 1
        return text

    # -- declarations ------------------------------------------------------

    def program(self) -> Program:
        texts = self.texts
        fields: list[FieldDecl] = []
        procs: list[ProcDecl] = []
        seen_fields: set[str] = set()
        seen_procs: set[str] = set()
        while texts[self.i] in ("field", "proc"):
            if texts[self.i] == "field":
                pos = self.at(self.expect("field"))
                name_at = self.i
                name = self.expect_ident("field name")
                self.expect(";")
                if name in seen_fields:
                    raise self.fail(f"duplicate field name {name!r}", self.at(name_at))
                seen_fields.add(name)
                fields.append(FieldDecl(name, pos))
            else:
                decl = self.procdecl()
                if decl.name in seen_procs:
                    raise self.fail(f"duplicate procedure name {decl.name!r}", self.at(self.i - 1))
                seen_procs.add(decl.name)
                procs.append(decl)
        if texts[self.i] != "main":
            raise self.fail("expected 'field', 'proc', or 'main'")
        main_pos = self.at(self.expect("main"))
        self.first_return = None
        main, _ = self.block()
        if texts[self.i]:
            raise self.expected("end of input")
        # main returns exactly once, as its literal last top-level statement.
        if not main or type(main[-1]) is not SReturn:
            raise self.fail("main must end with 'return x;'", main_pos)
        if self.first_return is not main[-1]:
            raise self.fail("'return' must be the final statement of main", self.first_return.pos)
        return Program(tuple(fields), tuple(procs), main, main_pos)

    def procdecl(self) -> ProcDecl:
        pos = self.at(self.expect("proc"))
        name_at = self.i
        name = self.expect_ident("procedure name")
        ret_ann = self.annotation_opt()
        self.expect("(")
        param = self.expect_ident("parameter name")
        param_ann = self.annotation_opt()
        self.expect(")")
        body, returns = self.block()
        if self.unreachable is not None:
            raise self.fail("unreachable statement: every path above already returned", self.unreachable)
        if not returns:
            raise self.fail(
                f"procedure {name!r}: some path through the body falls off the end without 'return'", self.at(name_at)
            )
        return ProcDecl(name, ret_ann, param, param_ann, body, pos)

    def annotation_opt(self) -> GradAbst:
        if self.texts[self.i] != "@":
            return GradAbst.UNKNOWN
        self.i += 1
        text = self.texts[self.i]
        if text in ANNOTATION_WORDS:
            self.i += 1
            return ANNOTATION_WORDS[text]
        raise self.fail(f"unknown annotation {text!r}; expected NonNull, Nullable, or ?")

    # -- statements --------------------------------------------------------

    def block(self) -> tuple[Block, bool]:
        """A block, and whether every path through it returns."""
        self.nest(self.expect("{"))
        texts = self.texts
        stmts: list[Stmt] = []
        returns = False
        while (text := texts[self.i]) != "}":
            if not text:
                raise self.fail("unexpected end of input inside block")
            if returns and self.unreachable is None:
                self.unreachable = self.at(self.i)
            s, returns = self.stmt()
            stmts.append(s)
        self.i += 1
        self.depth -= 1
        return tuple(stmts), returns

    def stmt(self) -> tuple[Stmt, bool]:
        """A statement, and whether every path through it returns."""
        texts = self.texts
        i = self.i
        text, pos = texts[i], (self.lines[i], self.cols[i])
        if text not in _NOT_IDENT:
            after = texts[i + 1]
            if after == ":=":
                self.i = i + 2
                e = self.expr()
                self.expect(";")
                return SAssign(text, e, pos), False
            if after == ".":
                self.i = i + 2
                fieldname = self.expect_ident("field name")
                self.expect(":=")
                source = self.expect_ident("variable name")
                self.expect(";")
                return SFieldAssign(text, fieldname, source, pos), False
            raise self.fail("expected ':=' or '.' after variable name", self.at(i + 1))
        if text == "if":
            self.i = i + 1
            op, cond = self.cond()
            then, then_returns = self.block()
            self.expect("else")
            els, els_returns = self.block()
            return SIf(op, cond, then, els, pos), then_returns and els_returns
        if text == "while":
            self.i = i + 1
            op, cond = self.cond()
            body, _ = self.block()
            return SWhile(op, cond, body, pos), False
        if text == "var" or text == "return":
            self.i = i + 1
            name = self.expect_ident("variable name")
            self.expect(";")
            if text == "var":
                return SDecl(name, pos), False
            s = SReturn(name, pos)
            if self.first_return is None:
                self.first_return = s
            return s, True
        if text == "skip":
            self.i = i + 1
            self.expect(";")
            return SSkip(pos), False
        raise self.expected("a statement")

    def cond(self) -> tuple[str, Expr]:
        self.expect("(")
        e = self.expr()
        i = self.i
        op = self.texts[i]
        self.i = i + 1
        if op != "==" and op != "!=":
            raise self.fail("expected '==' or '!=' in condition", self.at(i))
        self.expect("null")
        self.expect(")")
        return op, e

    # -- expressions -------------------------------------------------------

    def expr(self) -> Expr:
        e = self.and_expr()
        texts = self.texts
        while texts[i := self.i] == "||":
            self.i = i + 1
            e = EOr(e, self.and_expr(), (self.lines[i], self.cols[i]))
        return e

    def and_expr(self) -> Expr:
        e = self.postfix_expr()
        texts = self.texts
        while texts[i := self.i] == "&&":
            self.i = i + 1
            e = EAnd(e, self.postfix_expr(), (self.lines[i], self.cols[i]))
        return e

    def postfix_expr(self) -> Expr:
        e = self.primary_expr()
        texts = self.texts
        while texts[i := self.i] == ".":
            self.i = i + 1
            e = EField(e, self.expect_ident("field name"), (self.lines[i], self.cols[i]))
        return e

    def primary_expr(self) -> Expr:
        texts = self.texts
        i = self.i
        text, pos = texts[i], (self.lines[i], self.cols[i])
        if text not in _NOT_IDENT:
            if texts[i + 1] == "(":
                self.i = i + 1
                self.nest(self.expect("("))
                arg = self.expr()
                self.expect(")")
                self.depth -= 1
                return ECall(text, arg, pos)
            self.i = i + 1
            return EVar(text, pos)
        if text == "null":
            self.i = i + 1
            return ENull(pos)
        if text == "new":
            self.i = i + 1
            self.expect("{")
            names = [self.expect_ident("field name")]
            while texts[self.i] == ",":
                self.i += 1
                names.append(self.expect_ident("field name"))
            self.expect("}")
            return ENew(tuple(names), pos)
        raise self.expected("an expression")


def parse(source: str) -> Program:
    """Parse PICL source text.  Raises ParseError with a 1-based position.

    The source is let go once it is lexed: when the caller holds it no
    longer, it is freed before the tree is built.
    """
    lexed = _lex(source)
    del source
    return _Parser(*lexed).program()


# ---------------------------------------------------------------------------
# Surface checks
# ---------------------------------------------------------------------------


# An ordered set of variable names, oldest first, so that what a block adds
# is the tail and can be taken back with popitem.
Names = dict[str, None]


def _undo(names: Names, mark: int) -> Names:
    """Remove and return the names added after the first `mark`."""
    added: Names = {}
    while len(names) > mark:
        added[names.popitem()[0]] = None
    return added


def _keep_common(names: Names, ours: Names, theirs: Names) -> None:
    """Add to names what both ours and theirs hold."""
    if ours and theirs:
        names.update((x, None) for x in ours if x in theirs)


class _SurfaceWalk:
    """check_surface's one walk over a program: its errors, allocations and accessed field names.

    Methods on an object, not nested functions: a closure that walks nested
    blocks refers to itself, and that reference cycle would keep everything
    the walk collects alive until a collector pass.
    """

    __slots__ = ("fields", "procs", "errors", "allocs", "accessed")

    def __init__(self, p: Program):
        self.fields = p.field_names
        self.procs = set(p.proc_map)
        self.errors: list[Diagnostic] = []
        self.allocs: list[ENew] = []  # in walk order
        self.accessed: set[str] = set()  # field names read or written

    def err(self, message: str, pos: tuple[int, int]) -> None:
        self.errors.append(Diagnostic("error", message, pos[0], pos[1]))

    def expr(self, e: Expr, declared: Names, assigned: Names) -> None:
        # Every subexpression in preorder, with an explicit stack (chains run deep).
        stack = [e]
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is EVar:
                self.var_use(node.name, node.pos, declared, assigned)
            elif kind is ENew:
                self.allocs.append(node)
                for f in node.fields:
                    if f not in self.fields:
                        self.err(f"unknown field {f!r}", node.pos)
            elif kind is ECall:
                if node.proc not in self.procs:
                    self.err(f"unknown procedure {node.proc!r}", node.pos)
                stack.append(node.arg)
            elif kind is EField:
                self.field_use(node.fieldname, node.pos)
                stack.append(node.obj)
            elif kind is EAnd or kind is EOr:
                stack.append(node.right)
                stack.append(node.left)
            elif kind is not ENull:
                raise AssertionError(f"unknown expression {node!r}")

    def var_use(self, name: str, pos: tuple[int, int], declared: Names, assigned: Names) -> None:
        if name not in declared:
            self.err(f"undeclared variable {name!r}", pos)
        elif name not in assigned:
            self.err(f"variable {name!r} may be read before initialization", pos)

    def field_use(self, name: str, pos: tuple[int, int]) -> None:
        self.accessed.add(name)
        if name not in self.fields:
            self.err(f"unknown field {name!r}", pos)

    def stmts(self, block: Block, declared: Names, assigned: Names, ever_declared: set[str]) -> None:
        for s in block:
            kind = type(s)
            if kind is SAssign:
                self.expr(s.expr, declared, assigned)
                if s.target not in declared:
                    self.err(f"undeclared variable {s.target!r}", s.pos)
                assigned[s.target] = None
            elif kind is SDecl:
                if s.name in ever_declared:
                    self.err(f"redeclaration of variable {s.name!r}", s.pos)
                ever_declared.add(s.name)
                declared[s.name] = None
            elif kind is SIf:
                self.expr(s.cond, declared, assigned)
                then_declared, then_assigned = self.arm(s.then, declared, assigned, ever_declared)
                else_declared, else_assigned = self.arm(s.els, declared, assigned, ever_declared)
                # What both arms add survives the if.
                _keep_common(declared, then_declared, else_declared)
                _keep_common(assigned, then_assigned, else_assigned)
            elif kind is SReturn:
                self.var_use(s.name, s.pos, declared, assigned)
            elif kind is SFieldAssign:
                self.var_use(s.obj, s.pos, declared, assigned)
                self.var_use(s.source, s.pos, declared, assigned)
                self.field_use(s.fieldname, s.pos)
            elif kind is SWhile:
                self.expr(s.cond, declared, assigned)
                # The body may run zero times: its effects do not survive it.
                self.arm(s.body, declared, assigned, ever_declared)
            elif kind is not SSkip:
                raise AssertionError(f"unknown statement {s!r}")

    def arm(self, block: Block, declared: Names, assigned: Names, ever_declared: set[str]) -> tuple[Names, Names]:
        """Walk a block in place, then take back and return what it declared and assigned."""
        marks = len(declared), len(assigned)
        self.stmts(block, declared, assigned, ever_declared)
        return _undo(declared, marks[0]), _undo(assigned, marks[1])


def check_surface(p: Program) -> list[Diagnostic]:
    """Name and initialization checks, then the allocation notes, in one walk.

    The errors come first, in walk order.  There are none iff every variable
    is declared before use and assigned before it is read along every
    syntactic path, every called procedure exists, and every mentioned field
    is declared.  Then comes a note for each field that an allocation omits
    and the program reads or writes somewhere: such an object, should it
    reach that access, is stuck at run time even though the receiver is
    non-null.  Notes are advisory and never block analysis; they follow the
    allocations in walk order, and each allocation's fields in sorted order.
    Each statement and expression is judged by its exact type, most frequent
    kind first; a node of any other type is an AssertionError.
    """
    walk = _SurfaceWalk(p)
    for proc in p.procs:
        walk.stmts(proc.body, {proc.param: None}, {proc.param: None}, {proc.param})
    walk.stmts(p.main, {}, {}, set())
    return walk.errors + [
        Diagnostic("note", f"allocation omits field {f!r}, which the program dereferences elsewhere", *e.pos)
        for e in walk.allocs
        for f in sorted(walk.accessed.difference(e.fields))
    ]


# ---------------------------------------------------------------------------
# Rendering (parse . render == identity up to positions)
# ---------------------------------------------------------------------------


_PREC_OR, _PREC_AND, _PREC_POSTFIX = 0, 1, 2


def _render_expr(e: Expr, prec: int = _PREC_OR) -> str:
    # The grammar has no parentheses, so a tree whose operand nesting needs
    # them (e.g. a right-nested &&) cannot be printed faithfully; refuse
    # rather than emit text that reparses to a different tree.  The spine of
    # left operands and receivers is walked with a loop (chains run deep),
    # in the order the recursion on them would take.
    spine: list[Expr] = []
    while (kind := type(e)) is EAnd or kind is EOr or kind is EField:
        spine.append(e)
        if kind is EField:
            e, prec = e.obj, _PREC_POSTFIX
            continue
        op_prec = _PREC_AND if kind is EAnd else _PREC_OR
        if prec > op_prec:
            raise ValueError("expression nesting not expressible in the surface grammar")
        e, prec = e.left, op_prec
    if kind is ENull:
        text = "null"
    elif kind is EVar:
        text = e.name
    elif kind is ENew:
        text = "new {" + ", ".join(e.fields) + "}"
    elif kind is ECall:
        text = f"{e.proc}({_render_expr(e.arg, _PREC_OR)})"
    else:
        raise AssertionError(f"unknown expression {e!r}")
    for node in reversed(spine):
        kind = type(node)
        if kind is EField:
            text += f".{node.fieldname}"
        elif kind is EAnd:
            text += f" && {_render_expr(node.right, _PREC_POSTFIX)}"
        else:
            text += f" || {_render_expr(node.right, _PREC_AND)}"
    return text


def _render_ann(ann: GradAbst) -> str:
    if ann is GradAbst.UNKNOWN:
        return ""
    return f"@{ann}"


def _render_block(block: Block, indent: int) -> list[str]:
    pad = "    " * indent
    lines: list[str] = []
    for s in block:
        kind = type(s)
        if kind is SSkip:
            lines.append(f"{pad}skip;")
        elif kind is SDecl:
            lines.append(f"{pad}var {s.name};")
        elif kind is SAssign:
            lines.append(f"{pad}{s.target} := {_render_expr(s.expr)};")
        elif kind is SFieldAssign:
            lines.append(f"{pad}{s.obj}.{s.fieldname} := {s.source};")
        elif kind is SReturn:
            lines.append(f"{pad}return {s.name};")
        elif kind is SIf:
            lines.append(f"{pad}if ({_render_expr(s.cond)} {s.op} null) {{")
            lines.extend(_render_block(s.then, indent + 1))
            lines.append(f"{pad}}} else {{")
            lines.extend(_render_block(s.els, indent + 1))
            lines.append(f"{pad}}}")
        elif kind is SWhile:
            lines.append(f"{pad}while ({_render_expr(s.cond)} {s.op} null) {{")
            lines.extend(_render_block(s.body, indent + 1))
            lines.append(f"{pad}}}")
        else:
            raise AssertionError(f"unknown statement {s!r}")
    return lines


def render_program(p: Program) -> str:
    lines: list[str] = []
    for f in p.fields:
        lines.append(f"field {f.name};")
    if p.fields:
        lines.append("")
    for proc in p.procs:
        head = f"proc {proc.name}{_render_ann(proc.ret_ann)}({proc.param}{_render_ann(proc.param_ann)}) {{"
        lines.append(head)
        lines.extend(_render_block(proc.body, 1))
        lines.append("}")
        lines.append("")
    lines.append("main {")
    lines.extend(_render_block(p.main, 1))
    lines.append("}")
    return "\n".join(lines) + "\n"
