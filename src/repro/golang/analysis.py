"""Concurrency-oriented static analysis over the Go-subset AST.

Helpers used by the skeletonizer (Section 4.3), the race-info extractor
(Section 4.2), and several fix strategies:

* find concurrency constructs (``go``, channels, ``sync.*``, ``atomic.*``);
* collect the variable names referenced on given source lines (the racy
  variables of interest);
* locate the function declaration or closure that encloses a source line;
* enumerate goroutine-spawn sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.golang import ast_nodes as ast

#: Selector roots that indicate a synchronization package.
SYNC_PACKAGES = {"sync", "atomic"}

#: Method names that indicate synchronization when called on any receiver.
SYNC_METHOD_NAMES = {
    "Lock", "Unlock", "RLock", "RUnlock", "TryLock",
    "Add", "Done", "Wait",
    "Load", "Store", "Delete", "Range", "LoadOrStore", "CompareAndSwap",
    "AddInt32", "AddInt64", "LoadInt32", "LoadInt64", "StoreInt32", "StoreInt64",
    "CompareAndSwapInt32", "CompareAndSwapInt64",
    "Do",
}

#: Type names (right-hand side of a selector on ``sync``) considered concurrency types.
SYNC_TYPE_NAMES = {"Mutex", "RWMutex", "WaitGroup", "Map", "Once", "Cond", "Pool"}


# ---------------------------------------------------------------------------
# Concurrency construct detection
# ---------------------------------------------------------------------------


def expr_mentions_sync(expr: ast.Expr | None) -> bool:
    """Return True if the expression mentions a synchronization construct."""
    if expr is None:
        return False
    for node in ast.walk(expr):
        if isinstance(node, ast.SelectorExpr):
            root = ast.base_name(node)
            if root in SYNC_PACKAGES:
                return True
            if node.sel in SYNC_TYPE_NAMES and isinstance(node.x, ast.Ident) and node.x.name == "sync":
                return True
        if isinstance(node, ast.CallExpr):
            fun = node.fun
            if isinstance(fun, ast.SelectorExpr) and fun.sel in SYNC_METHOD_NAMES:
                return True
        if isinstance(node, (ast.ChanType,)):
            return True
        if isinstance(node, ast.UnaryExpr) and node.op == "<-":
            return True
        if isinstance(node, ast.FuncLit):
            if block_mentions_concurrency(node.body):
                return True
    return False


def stmt_is_concurrency(stmt: ast.Stmt) -> bool:
    """Return True if the statement itself is a concurrency construct."""
    if isinstance(stmt, (ast.GoStmt, ast.SendStmt, ast.SelectStmt)):
        return True
    if isinstance(stmt, ast.DeferStmt):
        return expr_mentions_sync(stmt.call)
    if isinstance(stmt, ast.ExprStmt):
        return expr_mentions_sync(stmt.x)
    if isinstance(stmt, ast.AssignStmt):
        return any(expr_mentions_sync(e) for e in stmt.lhs + stmt.rhs)
    if isinstance(stmt, ast.DeclStmt):
        for spec in stmt.decl.specs:
            if isinstance(spec, ast.ValueSpec):
                if spec.type_ is not None and expr_mentions_sync(spec.type_):
                    return True
                if any(expr_mentions_sync(v) for v in spec.values):
                    return True
    return False


def block_mentions_concurrency(block: ast.BlockStmt | None) -> bool:
    if block is None:
        return False
    for stmt in block.stmts:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.GoStmt, ast.SendStmt, ast.SelectStmt, ast.ChanType)):
                return True
            if isinstance(node, ast.UnaryExpr) and node.op == "<-":
                return True
            if isinstance(node, ast.SelectorExpr) and ast.base_name(node) in SYNC_PACKAGES:
                return True
            if isinstance(node, ast.CallExpr) and isinstance(node.fun, ast.SelectorExpr) \
                    and node.fun.sel in SYNC_METHOD_NAMES:
                return True
    return False


# ---------------------------------------------------------------------------
# Line-oriented helpers
# ---------------------------------------------------------------------------


def node_line_span(node: ast.Node) -> Tuple[int, int]:
    """Return the (min, max) source line covered by ``node`` and its children."""
    lines = [n.pos.line for n in ast.walk(node) if n.pos.line > 0]
    if not lines:
        return (0, 0)
    return (min(lines), max(lines))


def line_spans(root: ast.Node) -> Dict[int, Tuple[int, int]]:
    """:func:`node_line_span` of ``root`` and of every node under it, keyed by
    ``id(node)``, from one pass.  The keys are valid only while the tree is
    alive, so callers keep the result local."""
    # Breadth-first, so every parent precedes its children and one sweep
    # from the end folds each subtree into its parent.
    nodes = [root]
    parents = [-1]
    for index, node in enumerate(nodes):
        for child in node.children():
            nodes.append(child)
            parents.append(index)
    low = [node.pos.line for node in nodes]
    high = list(low)
    for index in range(len(nodes) - 1, 0, -1):
        line = low[index]
        if line <= 0:
            continue
        parent = parents[index]
        if low[parent] <= 0 or line < low[parent]:
            low[parent] = line
        if high[index] > high[parent]:
            high[parent] = high[index]
    return {
        id(node): (low[index], high[index]) if low[index] > 0 else (0, 0)
        for index, node in enumerate(nodes)
    }


#: Statements whose names :func:`names_on_lines` skips: they would pull in
#: their whole bodies.
_COMPOUND_STMTS = (ast.BlockStmt, ast.IfStmt, ast.ForStmt, ast.RangeStmt,
                   ast.SwitchStmt, ast.SelectStmt)


def names_on_lines(func: ast.FuncDecl | ast.FuncLit, lines: Iterable[int]) -> Set[str]:
    """Return the identifier names referenced by statements covering ``lines``."""
    wanted = set(lines)
    names: Set[str] = set()
    body = func.body
    if body is None:
        return names
    spans = line_spans(body)
    for node in ast.walk(body):
        if not isinstance(node, ast.Stmt) or isinstance(node, _COMPOUND_STMTS):
            continue
        low, high = spans[id(node)]
        if not low or not any(low <= line <= high for line in wanted):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Ident):
                names.add(inner.name)
    return names


def assigned_names(func: ast.FuncDecl | ast.FuncLit) -> Set[str]:
    """Return every name assigned anywhere inside the function (incl. closures)."""
    names: Set[str] = set()
    if func.body is None:
        return names
    for node in ast.walk(func.body):
        if isinstance(node, ast.AssignStmt):
            for expr in node.lhs:
                name = ast.base_name(expr)
                if name:
                    names.add(name)
        elif isinstance(node, ast.IncDecStmt):
            name = ast.base_name(node.x)
            if name:
                names.add(name)
    return names


# ---------------------------------------------------------------------------
# Function lookup by line
# ---------------------------------------------------------------------------


@dataclass
class EnclosingFunction:
    """A function declaration (and optionally the closure) covering a source line."""

    decl: ast.FuncDecl
    closure: Optional[ast.FuncLit] = None

    @property
    def name(self) -> str:
        return self.decl.name


def find_enclosing_function(file: ast.File, line: int) -> Optional[EnclosingFunction]:
    """Find the top-level function (and innermost closure) covering ``line``."""
    best: Optional[EnclosingFunction] = None
    for decl in file.func_decls():
        if decl.body is None:
            continue
        spans = line_spans(decl)
        low, high = spans[id(decl)]
        if not (low <= line <= high):
            continue
        closure: Optional[ast.FuncLit] = None
        for node in ast.walk(decl.body):
            if isinstance(node, ast.FuncLit):
                clow, chigh = spans[id(node)]
                if clow <= line <= chigh:
                    closure = node
        best = EnclosingFunction(decl=decl, closure=closure)
    return best


# ---------------------------------------------------------------------------
# Goroutine spawn sites
# ---------------------------------------------------------------------------


@dataclass
class SpawnSite:
    """A ``go`` statement together with its enclosing function."""

    func: ast.FuncDecl
    stmt: ast.GoStmt
    line: int = 0
    captured: Set[str] = field(default_factory=set)


def find_spawn_sites(file: ast.File) -> List[SpawnSite]:
    """Return every goroutine creation point in the file."""
    from repro.golang.symbols import analyze_captures

    sites: List[SpawnSite] = []
    for decl in file.func_decls():
        if decl.body is None:
            continue
        captures = {id(info.func_lit): info.captured for info in analyze_captures(decl, file)}
        for node in ast.walk(decl.body):
            if isinstance(node, ast.GoStmt):
                captured: Set[str] = set()
                if isinstance(node.call.fun, ast.FuncLit):
                    captured = set(captures.get(id(node.call.fun), set()))
                sites.append(SpawnSite(func=decl, stmt=node, line=node.pos.line, captured=captured))
    return sites


def functions_called(func: ast.FuncDecl | ast.FuncLit) -> Set[str]:
    """Return the set of function/method names called inside ``func``."""
    called: Set[str] = set()
    if func.body is None:
        return called
    for node in ast.walk(func.body):
        if isinstance(node, ast.CallExpr):
            if isinstance(node.fun, ast.Ident):
                called.add(node.fun.name)
            elif isinstance(node.fun, ast.SelectorExpr):
                called.add(node.fun.sel)
    return called


def build_call_graph(file: ast.File) -> dict[str, Set[str]]:
    """A name-based call graph: function name → called function names."""
    graph: dict[str, Set[str]] = {}
    for decl in file.func_decls():
        graph[decl.name] = functions_called(decl)
    return graph


def lowest_common_ancestor(
    call_paths: Tuple[List[str], List[str]],
) -> Optional[str]:
    """Return the deepest function appearing in both call paths.

    ``call_paths`` are root-first lists of function names (Fig. 2).  The LCA is
    the last common prefix element; when the paths diverge immediately the
    shared root is returned, and ``None`` when there is no common frame at all.
    """
    first, second = call_paths
    lca: Optional[str] = None
    for a, b in zip(first, second):
        if a == b:
            lca = a
        else:
            break
    return lca
