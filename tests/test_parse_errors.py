"""Input validation for the interchange loaders.

Malformed KISS2 and BLIF text must raise :class:`ParseError`
subclasses that carry the source path and line number, and the BLIF
importer must invert :func:`to_blif` behaviourally.
"""

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ParseError
from repro.core.kiss import KissError, from_kiss, load_kiss, to_kiss
from repro.models import traffic_light
from repro.rtl import Netlist
from repro.rtl.blif import BlifError, from_blif, load_blif, to_blif
from repro.rtl.expr import and_, not_, or_, xor_
from tests.test_rtl_netlist import counter_netlist, toggle_netlist


class TestParseErrorFormatting:
    def test_is_a_value_error(self):
        assert issubclass(ParseError, ValueError)
        assert issubclass(KissError, ParseError)
        assert issubclass(BlifError, ParseError)

    def test_path_and_line_in_message(self):
        err = ParseError("bad thing", path="model.kiss", line=7)
        assert str(err) == "model.kiss, line 7: bad thing"
        assert err.path == "model.kiss"
        assert err.line == 7
        assert err.message == "bad thing"

    def test_line_only(self):
        assert str(ParseError("oops", line=3)) == "line 3: oops"

    def test_path_only(self):
        assert str(ParseError("oops", path="f")) == "f: oops"

    def test_bare(self):
        assert str(ParseError("oops")) == "oops"


class TestKissValidation:
    @pytest.mark.parametrize("text, fragment, line", [
        (".i two\n0 a a 0\n.e", "non-negative integer", 1),
        (".i -1\n0 a a 0\n.e", "non-negative integer", 1),
        (".i 1 1\n0 a a 0\n.e", "bad header", 1),
        (".i 1\n0 a a\n.e", "expected 'in state next out'", 2),
        (".i 1\n0x a a 0\n.e", "bits outside '01-'", 2),
        (".i 2\n0 a a 1\n.e", "width != .i 2", 2),
        (".i 1\n0 a a 0\n0 a b 0\n.e", "conflicting transition", 3),
    ])
    def test_malformed_text(self, text, fragment, line):
        with pytest.raises(KissError) as excinfo:
            from_kiss(text, path="m.kiss")
        assert fragment in str(excinfo.value)
        assert f"m.kiss, line {line}:" in str(excinfo.value)

    def test_empty_body_has_path_but_no_line(self):
        with pytest.raises(KissError) as excinfo:
            from_kiss(".i 1\n.o 1\n.e", path="m.kiss")
        assert str(excinfo.value) == "m.kiss: no transitions"

    def test_load_kiss_reports_file_path(self, tmp_path):
        path = tmp_path / "broken.kiss"
        path.write_text(".i 1\n0 a a\n.e\n")
        with pytest.raises(KissError, match=r"broken\.kiss, line 2"):
            load_kiss(str(path))

    def test_load_kiss_roundtrip(self, tmp_path):
        machine = traffic_light()
        doc = to_kiss(machine)
        path = tmp_path / "tl.kiss"
        path.write_text(doc.text)
        recovered = load_kiss(str(path), name="tl")
        assert recovered.name == "tl"
        assert recovered.num_transitions() == machine.num_transitions()

    def test_errors_catchable_as_parse_error(self):
        with pytest.raises(ParseError):
            from_kiss("junk line here extra\n.e")


class TestBlifValidation:
    GOOD = """\
.model toy
.inputs a b
.outputs y
.names a b y
11 1
.end
"""

    def test_good_text_parses(self):
        net = from_blif(self.GOOD)
        assert net.name == "toy"
        outs, _state = net.run([{"a": True, "b": True}])
        assert outs[0]["y"] is True

    @pytest.mark.parametrize("text, fragment, line", [
        (".model a\n.model b\n.end", "multiple .model", 2),
        (".inputs a\n.latch a q re clk x\n.end", "init value in 0/1/2/3", 2),
        (".inputs a\n.latch a q 4\n.end", "init value in 0/1/2/3", 2),
        (".inputs a\n.latch a\n.end", "bad .latch", 2),
        (".inputs a\n.latch a q\n.latch a q\n.end",
         "defined twice", 3),
        (".inputs a\n.names a y\n1 0\n.end", "only on-set", 3),
        (".inputs a\n.names a y\n11 1\n.end",
         "2 literals for 1 fan-ins", 3),
        (".inputs a\n.names a y\nx 1\n.end", "bits outside '01-'", 3),
        (".inputs a\n.names y\n.names y\n.end", "driven twice", 3),
        (".inputs a\n1 1\n.end", "outside a .names block", 2),
        (".inputs a\n.end\n.names a y", "text after .end", 3),
        (".inputs a\n.wires a\n.end", "unsupported construct", 2),
        (".inputs a\n.outputs y\n.end", "never driven", 1),
        (".inputs a\n.latch a a re clk 0\n.end",
         "both an input and a latch output", 2),
        (".inputs a b\n.inputs a\n.end",
         "input 'a' declared twice (first on line 1)", 2),
        (".inputs a a\n.end",
         "input 'a' declared twice (first on line 1)", 1),
        (".outputs y\n.outputs z y\n.end",
         "output 'y' declared twice (first on line 1)", 2),
    ])
    def test_malformed_text(self, text, fragment, line):
        with pytest.raises(BlifError) as excinfo:
            from_blif(text, path="m.blif")
        assert fragment in str(excinfo.value)
        assert f"m.blif, line {line}:" in str(excinfo.value)

    @pytest.mark.parametrize("text", [
        "",
        "\n\n\n",
        "# only a comment\n",
        "# comment\n   \n# another\n",
    ], ids=["empty", "blank-lines", "comment", "comments-and-blanks"])
    def test_empty_text_is_an_error(self, text):
        with pytest.raises(BlifError, match="empty BLIF text"):
            from_blif(text, path="m.blif")

    @pytest.mark.parametrize("init_token, args", [
        ("2", "t_next t 2"),
        ("3", "t_next t 3"),
        ("2", "t_next t re clk 2"),
        ("3", "t_next t re clk 3"),
    ], ids=["dc-3arg", "unk-3arg", "dc-5arg", "unk-5arg"])
    def test_dont_care_init_pins_to_zero(self, init_token, args):
        # BLIF allows don't-care (2) and unknown (3) initial values;
        # the reader pins both to 0 so every consumer of a corpus
        # circuit sees the same reset state.
        text = (
            ".model t\n.inputs en\n.outputs q\n"
            f".latch {args}\n"
            ".names en t t_next\n10 1\n01 1\n"
            ".names t q\n1 1\n.end\n"
        )
        net = from_blif(text)
        assert net.reset_state() == {"t": False}

    def test_multiple_output_lines_concatenate(self):
        text = (
            ".model t\n.inputs a b\n"
            ".outputs y\n.outputs z\n"
            ".names a y\n1 1\n"
            ".names b z\n1 1\n.end\n"
        )
        net = from_blif(text)
        assert net.output_names == ("y", "z")

    def test_continuation_at_end_of_file(self):
        # A trailing '\' with nothing after it must still yield the
        # pending logical line instead of dropping it.
        text = (
            ".model t\n.inputs a\n.outputs y\n"
            ".names a y\n1 1\n"
            ".end \\"
        )
        net = from_blif(text)
        outs, _state = net.run([{"a": True}])
        assert outs[0]["y"] is True

    def test_combinational_cycle_named_in_error(self):
        text = (
            ".outputs y\n"
            ".names b a\n1 1\n"
            ".names a b\n1 1\n"
            ".names a y\n1 1\n"
            ".end\n"
        )
        with pytest.raises(BlifError, match="combinational cycle"):
            from_blif(text)

    def test_continuations_and_comments(self):
        text = (
            ".model toy  # trailing comment\n"
            ".inputs a \\\n"
            "  b\n"
            "# a full-line comment\n"
            ".outputs y\n"
            ".names a b \\\n"
            "  y\n"
            "1- 1\n"
            ".end\n"
        )
        net = from_blif(text)
        outs, _state = net.run([{"a": True, "b": False}])
        assert outs[0]["y"] is True
        outs, _state = net.run([{"a": False, "b": True}])
        assert outs[0]["y"] is False

    def test_load_blif_reports_file_path(self, tmp_path):
        path = tmp_path / "broken.blif"
        path.write_text(".model a\n.model b\n.end\n")
        with pytest.raises(BlifError, match=r"broken\.blif, line 2"):
            load_blif(str(path))


def _random_netlist(seed):
    """A small random netlist over 2 inputs and 2 registers."""
    rng = random.Random(seed)
    net = Netlist(f"rand{seed}")
    a = net.add_input("a")
    b = net.add_input("b")
    q0 = net.add_register("q0", init=rng.random() < 0.5)
    q1 = net.add_register("q1", init=rng.random() < 0.5)
    pool = [a, b, q0, q1]

    def expr():
        ops = [
            lambda: and_(rng.choice(pool), rng.choice(pool)),
            lambda: or_(rng.choice(pool), not_(rng.choice(pool))),
            lambda: xor_(rng.choice(pool), rng.choice(pool)),
        ]
        return rng.choice(ops)()

    net.set_next("q0", expr())
    net.set_next("q1", expr())
    net.add_output("y", expr())
    net.add_output("z", not_(expr()))
    net.validate()
    return net


class TestBlifRoundTrip:
    @pytest.mark.parametrize("builder", [
        toggle_netlist,
        lambda: counter_netlist(2),
        lambda: counter_netlist(3),
        lambda: _random_netlist(0),
        lambda: _random_netlist(1),
        lambda: _random_netlist(2),
    ], ids=["toggle", "counter2", "counter3", "rand0", "rand1", "rand2"])
    def test_roundtrip_is_behaviour_identical(self, builder):
        original = builder()
        recovered = from_blif(to_blif(original))
        assert set(recovered.inputs) == set(original.inputs)
        assert set(recovered.registers) == set(original.registers)
        assert recovered.reset_state() == original.reset_state()
        rng = random.Random(7)
        names = list(original.inputs)
        stimulus = [
            {n: rng.random() < 0.5 for n in names} for _ in range(32)
        ]
        want_outs, want_state = original.run(stimulus)
        got_outs, got_state = recovered.run(stimulus)
        assert got_outs == want_outs
        assert got_state == want_state

    def test_roundtrip_survives_a_file(self, tmp_path):
        path = tmp_path / "toggle.blif"
        path.write_text(to_blif(toggle_netlist()))
        net = load_blif(str(path), name="toggle")
        assert net.name == "toggle"
        net.validate()


#: The bundled corpus files, by name.
CORPUS_TEXTS = {
    path.name: path.read_text()
    for path in sorted(
        (Path(__file__).resolve().parent.parent / "examples" / "corpus")
        .iterdir()
    )
    if path.suffix in (".kiss", ".blif")
}

#: Pieces worth inserting besides the file's own: both formats'
#: keywords, a continuation, a comment, a don't-care and bad digits.
EXTRA_PIECES = (
    ".e", ".end", ".names", ".latch", ".model", ".r", ".i", ".s",
    "\\\n", "#", "-", "2", "9", " ", "\n",
)


def _pieces(text, unit):
    if unit == "char":
        return list(text)
    if unit == "line":
        return text.splitlines(keepends=True)
    return re.split(r"(\s+)", text)


@st.composite
def mutated_corpus_file(draw):
    """A corpus file after a few character, token or line insertions,
    deletions and swaps."""
    name = draw(st.sampled_from(sorted(CORPUS_TEXTS)))
    text = CORPUS_TEXTS[name]
    for _ in range(draw(st.integers(1, 4))):
        pieces = _pieces(text, draw(st.sampled_from(("char", "token", "line"))))
        if not pieces:
            break
        at = draw(st.integers(0, len(pieces) - 1))
        action = draw(st.sampled_from(("insert", "delete", "swap")))
        if action == "insert":
            pieces.insert(at, draw(st.sampled_from(pieces + list(EXTRA_PIECES))))
        elif action == "delete":
            del pieces[at]
        else:
            other = draw(st.integers(0, len(pieces) - 1))
            pieces[at], pieces[other] = pieces[other], pieces[at]
        text = "".join(pieces)
    return name, text


class TestMutatedCorpus:
    def test_corpus_files_are_both_formats(self):
        suffixes = {name.rsplit(".", 1)[1] for name in CORPUS_TEXTS}
        assert suffixes == {"kiss", "blif"}

    @settings(max_examples=200, deadline=None)
    @given(mutated_corpus_file())
    def test_parses_or_raises_located_parse_error(self, case):
        """A mutated file parses or raises a :class:`ParseError` with
        the given path and, unless the error concerns the whole file
        (KISS text without transitions), a line."""
        name, text = case
        parse = from_kiss if name.endswith(".kiss") else from_blif
        try:
            parse(text, path=name)
        except ParseError as err:
            assert err.path == name
            assert err.line is not None or err.message == "no transitions"
