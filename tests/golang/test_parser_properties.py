"""Property-based tests for the parser/printer using hypothesis."""

import copy

from hypothesis import given, settings, strategies as st

from repro.golang import ast_nodes as ast
from repro.golang.parser import parse_expr, parse_file
from repro.golang.printer import print_file, print_node

identifiers = st.from_regex(r"[a-z][a-zA-Z0-9]{0,6}", fullmatch=True).filter(
    lambda s: s not in {
        "go", "if", "for", "func", "var", "map", "chan", "type", "case", "else",
        "break", "const", "defer", "range", "return", "select", "switch", "import",
        "package", "default", "continue", "fallthrough", "goto", "interface", "struct",
    }
)
int_literals = st.integers(min_value=0, max_value=10_000).map(str)
string_literals = st.from_regex(r"[a-zA-Z0-9 _-]{0,12}", fullmatch=True).map(lambda s: f'"{s}"')


@st.composite
def simple_exprs(draw, depth: int = 2) -> str:
    """Generate small Go expressions."""
    if depth <= 0:
        return draw(st.one_of(identifiers, int_literals, string_literals))
    choice = draw(st.integers(min_value=0, max_value=5))
    if choice == 0:
        return draw(st.one_of(identifiers, int_literals, string_literals))
    if choice == 1:
        left = draw(simple_exprs(depth=depth - 1))
        right = draw(simple_exprs(depth=depth - 1))
        op = draw(st.sampled_from(["+", "-", "*", "==", "!=", "&&", "||", "<", ">"]))
        return f"{left} {op} {right}"
    if choice == 2:
        fun = draw(identifiers)
        args = draw(st.lists(simple_exprs(depth=depth - 1), min_size=0, max_size=3))
        return f"{fun}({', '.join(args)})"
    if choice == 3:
        base = draw(identifiers)
        field = draw(identifiers)
        return f"{base}.{field}"
    if choice == 4:
        base = draw(identifiers)
        index = draw(simple_exprs(depth=depth - 1))
        return f"{base}[{index}]"
    inner = draw(simple_exprs(depth=depth - 1))
    return f"({inner})"


@st.composite
def simple_functions(draw) -> str:
    """Generate small Go functions with assignments, conditionals, and goroutines."""
    name = draw(identifiers).capitalize()
    lines = []
    variables = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        var = f"v{index}"
        variables.append(var)
        lines.append(f"\t{var} := {draw(simple_exprs())}")
    if draw(st.booleans()):
        cond_var = draw(st.sampled_from(variables))
        lines.append(f"\tif {cond_var} != nil {{")
        lines.append(f"\t\t{cond_var} = {draw(simple_exprs())}")
        lines.append("\t}")
    if draw(st.booleans()):
        captured = draw(st.sampled_from(variables))
        lines.append("\tgo func() {")
        lines.append(f"\t\tuse({captured})")
        lines.append("\t}()")
    lines.append(f"\treturn {draw(st.sampled_from(variables))}")
    body = "\n".join(lines)
    return f"package p\n\nfunc {name}() interface{{}} {{\n{body}\n}}\n"


class TestPrinterParserProperties:
    @given(simple_exprs())
    @settings(max_examples=150, deadline=None)
    def test_expression_print_parse_round_trip(self, source):
        expr = parse_expr(source)
        printed = print_node(expr)
        reparsed = parse_expr(printed)
        assert print_node(reparsed) == printed

    @given(simple_functions())
    @settings(max_examples=60, deadline=None)
    def test_function_print_parse_fixed_point(self, source):
        printed = print_file(parse_file(source))
        assert print_file(parse_file(printed)) == printed

    @given(simple_functions())
    @settings(max_examples=40, deadline=None)
    def test_printed_functions_preserve_declaration_count(self, source):
        original = parse_file(source)
        printed = parse_file(print_file(original))
        assert len(printed.func_decls()) == len(original.func_decls())


def _fresh_all_the_way_down(original: ast.Node, copied: ast.Node) -> None:
    assert copied is not original and type(copied) is type(original)
    for name, value in vars(original).items():
        other = vars(copied)[name]
        if isinstance(value, ast.Node):
            _fresh_all_the_way_down(value, other)
        elif isinstance(value, list):
            assert other is not value and len(other) == len(value)
            for item, other_item in zip(value, other):
                if isinstance(item, ast.Node):
                    _fresh_all_the_way_down(item, other_item)
                else:
                    assert other_item == item
        else:
            assert other == value


class TestClone:
    @given(simple_functions())
    @settings(max_examples=60, deadline=None)
    def test_clone_prints_like_deepcopy_and_shares_no_node(self, source):
        original = parse_file(source)
        cloned = ast.clone(original)
        assert print_file(cloned) == print_file(copy.deepcopy(original))
        assert cloned == original
        _fresh_all_the_way_down(original, cloned)

    @given(simple_exprs())
    @settings(max_examples=100, deadline=None)
    def test_expression_clone_prints_like_deepcopy(self, source):
        expr = parse_expr(source)
        assert print_node(ast.clone(expr)) == print_node(copy.deepcopy(expr))
        _fresh_all_the_way_down(expr, ast.clone(expr))
