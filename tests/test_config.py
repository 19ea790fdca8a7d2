"""Scenario config parsing and validation tests."""

import math
import re
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hexswarm.aco import AcoParams
from hexswarm.bco import BcoParams
from hexswarm.cli import main
from hexswarm.config import (
    CONTROLLERS,
    ConfigError,
    ScenarioConfig,
    ascii_float,
    ascii_int,
    config_overrides,
    parse_config,
)
from hexswarm.ga import GaParams
from hexswarm.hexworld import HexCoord

FLOAT_KEYS = [
    (section, f.name)
    for section, params in (("ga", GaParams), ("aco", AcoParams), ("bco", BcoParams))
    for f in fields(params)
    if get_type_hints(params)[f.name] is float
]


README = Path(__file__).resolve().parents[1] / "README.md"


class TestDefaults:
    def test_readme_scenario_block_parses_to_the_defaults(self):
        """README's scenario block names every key once and, removals
        aside, gives each its default."""
        text = README.read_text().split("## Scenario format", 1)[1]
        block = text.split("```\n", 2)[1]
        cfg = parse_config(block)
        assert cfg.removals == [(100, 3), (250, 0)]
        assert replace(cfg, removals=[]) == ScenarioConfig()
        keys = [
            line.partition("=")[0].strip()
            for line in block.splitlines()
            if "=" in line and not line.startswith("#")
        ]
        every_key = [f.name for f in fields(ScenarioConfig) if f.name not in ("ga", "aco", "bco")]
        every_key += [f.name for params in (GaParams, AcoParams, BcoParams) for f in fields(params)]
        assert sorted(keys) == sorted(every_key)

    def test_empty_text_gives_documented_defaults(self):
        cfg = parse_config("")
        assert cfg.controller == "ga"
        assert cfg.robots == 20
        assert cfg.radius == 15
        assert cfg.margin == 1
        assert cfg.seed == 0
        assert cfg.max_ticks == 500
        assert cfg.comm_range == 2
        assert cfg.ttl == 5
        assert cfg.sensing_radius == 8
        assert cfg.removals == []
        assert cfg.ga.population == 12
        assert cfg.aco.evaporation == 0.1
        assert cfg.bco.leader_timeout == 10

    def test_comments_and_blank_lines_are_ignored(self):
        cfg = parse_config("# a scenario\n\nrobots = 5\n")
        assert cfg.robots == 5


class TestSections:
    def test_aco_section_overrides_one_key(self):
        cfg = parse_config("controller = aco\n[aco]\nevaporation = 0.2\n")
        assert cfg.controller == "aco"
        assert cfg.aco.evaporation == 0.2
        assert cfg.aco.deposit_scale == 1.0  # untouched default
        assert cfg.aco.beta == 2.0

    def test_each_controller_section_parses(self):
        cfg = parse_config(
            "[ga]\npopulation = 8\n[aco]\nalpha = 1.5\n[bco]\nscout_prob = 0.4\n"
        )
        assert cfg.ga.population == 8
        assert cfg.aco.alpha == 1.5
        assert cfg.bco.scout_prob == 0.4

    def test_unknown_section_is_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("robots = 4\n[warp]\n")


class TestParseErrors:
    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ConfigError, match=r"line 3.*speed_of_light"):
            parse_config("robots = 4\nseed = 1\nspeed_of_light = 3e8\n")

    def test_bad_value_reports_line_and_key(self):
        with pytest.raises(ConfigError, match=r"line 1.*robots"):
            parse_config("robots = many\n")

    def test_missing_equals_is_a_parse_error(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("robots 4\n")

    def test_coordinates_parse_with_spaces_and_negatives(self):
        cfg = parse_config("target = 9, -1\nentry = -9,1\n")
        assert cfg.target == HexCoord(9, -1)
        assert cfg.entry == HexCoord(-9, 1)

    def test_removals_parse(self):
        cfg = parse_config("removals = 100:3, 250:0\n")
        assert cfg.removals == [(100, 3), (250, 0)]

    def test_duplicate_top_level_key_is_rejected(self):
        with pytest.raises(ConfigError, match=r"^line 3: duplicate key 'seed'$"):
            parse_config("seed = 1\nrobots = 5\nseed = 2\n")

    def test_duplicate_section_key_is_rejected(self):
        with pytest.raises(ConfigError, match=r"^line 4: duplicate key 'alpha' in \[aco\]$"):
            parse_config("[aco]\nalpha = 1.0\nbeta = 2.0\nalpha = 2.0\n")

    def test_repeated_section_is_rejected(self):
        with pytest.raises(ConfigError, match=r"^line 5: repeated section \[ga\]$"):
            parse_config("[ga]\npopulation = 4\n[aco]\nalpha = 1.0\n[ga]\n")

    def test_empty_repeated_section_is_rejected(self):
        with pytest.raises(ConfigError, match=r"^line 2: repeated section \[bco\]$"):
            parse_config("[bco]\n[bco]\n")

    @pytest.mark.parametrize("section,key", FLOAT_KEYS, ids=[f"{s}.{k}" for s, k in FLOAT_KEYS])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_float_is_rejected_with_line_and_key(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"^line 2: bad value for '{key}': "):
            parse_config(f"[{section}]\n{key} = {value}\n")


# Every character str.splitlines breaks at besides "\n", "\r" and "\r\n".
OTHER_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineBreaks:
    """Scenario lines end where an editor ends them: at "\n", after an
    optional "\r"."""

    @pytest.mark.parametrize("brk", OTHER_LINE_BREAKS)
    def test_a_comment_runs_to_the_newline(self, brk):
        assert parse_config(f"# comment{brk}seed = 9\n") == ScenarioConfig()

    @pytest.mark.parametrize("brk", OTHER_LINE_BREAKS)
    def test_a_value_runs_to_the_newline(self, brk):
        with pytest.raises(ConfigError, match=r"^line 1: bad value for 'robots': "):
            parse_config(f"robots = 3{brk}max_ticks = 5\n")

    @pytest.mark.parametrize("brk", OTHER_LINE_BREAKS)
    def test_an_error_names_the_line_an_editor_shows(self, brk):
        with pytest.raises(ConfigError, match=r"^line 2: unknown key 'bogus'$"):
            parse_config(f"# note{brk}robots = 3\nbogus = 1\n")

    def test_crlf_lines_parse_and_count(self):
        cfg = parse_config("# crlf\r\nrobots = 3\r\nseed = 4\r\n")
        assert (cfg.robots, cfg.seed) == (3, 4)
        with pytest.raises(ConfigError, match=r"^line 3: unknown key 'bogus'$"):
            parse_config("robots = 3\r\n\r\nbogus = 1\r\n")


# Every whitespace character but the padding (space, tab) and the line end
# ("\n", after an optional "\r").
OTHER_WHITESPACE = [
    c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c not in " \t\n\r"
]
PAD = st.text(alphabet=" \t", max_size=2)


class TestPadding:
    """Lines, keys, values, section names and the parts of coordinates and
    removals are trimmed of ASCII spaces and tabs only."""

    @pytest.mark.parametrize(
        "text,error",
        [
            ("\x1cseed = 9", "unknown key"),
            ("seed = 9\x0c", "bad value for 'seed'"),
            ("seed\u3000=\u30009", "unknown key"),
            ("\xa0seed = 9", "unknown key"),
            ("[\u3000ga ]", "unknown section"),
            ("target = 20,\u30000", "bad value for 'target'"),
        ],
    )
    def test_other_whitespace_is_not_padding(self, tmp_path, capsys, text, error):
        with pytest.raises(ConfigError, match=rf"^line 1: {error}"):
            parse_config(text + "\n")
        scenario = tmp_path / "scenario.cfg"
        scenario.write_bytes((text + "\n").encode("utf-8"))
        assert main(["--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"hexswarm: error: line 1: {error}")
        assert not (tmp_path / "out").exists()

    def test_spaces_and_tabs_pad_every_part(self):
        text = "\t seed\t= 9 \r\ntarget = 5\t, -1 \nremovals = 3 :\t1 , 4:2\n[ ga\t]\r\n population =\t4\t\n"
        cfg = parse_config(text)
        assert (cfg.seed, cfg.ga.population, cfg.target) == (9, 4, HexCoord(5, -1))
        assert cfg.removals == [(3, 1), (4, 2)]

    @pytest.mark.parametrize("line", ["\u3000", " \t\u3000\t "])
    def test_a_line_of_other_whitespace_shows_in_the_error(self, line):
        with pytest.raises(ConfigError, match=r"^line 1: expected 'key = value', got '\\u3000'$"):
            parse_config(line + "\n")

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.sampled_from(OTHER_WHITESPACE),
        st.sampled_from(["before key", "after value", "before section", "after section"]),
        st.sampled_from([("seed", "9"), ("robots", "4"), ("target", "5,-1"), ("removals", "3:1")]),
        st.lists(PAD, min_size=4, max_size=4),
    )
    def test_other_whitespace_never_parses(self, c, where, key_value, pads):
        key, value = key_value
        a, b, d, e = pads
        if where == "before key":
            text = f"{a}{c}{b}{key}{d}={e}{value}\n"
        elif where == "after value":
            text = f"{a}{key}{b}={d}{value}{c}{e}\n"
        elif where == "before section":
            text = f"[{a}{c}{b}ga{d}]\n"
        else:
            text = f"[{a}ga{b}{c}{d}]\n"
        with pytest.raises(ConfigError):
            parse_config(text)


class TestValidation:
    def test_zero_robots_names_the_field(self):
        with pytest.raises(ConfigError, match="robots"):
            parse_config("robots = 0\n")

    def test_margin_not_below_radius_names_the_field(self):
        with pytest.raises(ConfigError, match="margin"):
            parse_config("radius = 5\nmargin = 5\ntarget = 1,0\nentry = 0,1\n")

    def test_inaccessible_target_names_the_field(self):
        with pytest.raises(ConfigError, match="target"):
            parse_config("radius = 5\nmargin = 1\ntarget = 5,0\nentry = 0,1\n")

    def test_too_many_robots_for_the_board(self):
        with pytest.raises(ConfigError, match="robots"):
            parse_config("radius = 2\nmargin = 1\ntarget = 1,0\nentry = -1,0\nrobots = 8\n")

    def test_removal_robot_id_out_of_range(self):
        with pytest.raises(ConfigError, match="removals"):
            parse_config("robots = 3\nremovals = 10:7\n")

    @pytest.mark.parametrize("removals", ["5:3, 5:3", "5:3, 9:3"])
    def test_removal_repeating_a_robot_names_the_field(self, tmp_path, removals):
        scenario = tmp_path / "scenario.cfg"
        scenario.write_text(f"robots = 10\nremovals = {removals}\n")
        with pytest.raises(ConfigError, match="^removals: robot 3 is removed more than once$"):
            parse_config(scenario.read_text())

    def test_removal_past_max_ticks_is_kept(self):
        """--ticks can raise the limit, so a later removal is not an error."""
        cfg = parse_config("max_ticks = 10\nremovals = 50:1\n")
        assert cfg.removals == [(50, 1)]

    def test_bad_controller(self):
        with pytest.raises(ConfigError, match="controller"):
            parse_config("controller = pso\n")

    def test_bad_evaporation(self):
        with pytest.raises(ConfigError, match="evaporation"):
            parse_config("[aco]\nevaporation = 1.5\n")

    def test_odd_population_rejected(self):
        with pytest.raises(ConfigError, match="population"):
            parse_config("[ga]\npopulation = 7\n")

    @pytest.mark.parametrize("alpha", ["400", "308"])
    def test_overflowing_aco_weights_name_alpha(self, tmp_path, capsys, alpha):
        """(10 + 10)^400 raised OverflowError mid-run, and six weights of
        20^308 summed to inf, which sent every robot the last direction."""
        scenario = tmp_path / "scenario.cfg"
        scenario.write_text(f"controller = aco\n[aco]\nfloor = 10\nalpha = {alpha}\n")
        assert main(["--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("hexswarm: error: alpha: ")

    def test_largest_finite_weight_sum_is_kept(self):
        # levels stay below 1 / 0.5 = 2: six weights sum to at most 6 * 2^alpha,
        # finite at alpha = 1021 and past the largest float at alpha = 1022.
        section = "[aco]\nevaporation = 0.5\nfloor = 0\nalpha = "
        assert parse_config(section + "1021\n").aco.alpha == 1021
        with pytest.raises(ConfigError, match="^alpha: "):
            parse_config(section + "1022\n")


class TestOverrides:
    def test_override_replaces_top_level_field(self):
        cfg = parse_config("seed = 3\n")
        out = config_overrides(cfg, seed=9, controller="bco")
        assert out.seed == 9
        assert out.controller == "bco"
        assert cfg.seed == 3  # original untouched

    def test_none_values_are_ignored(self):
        cfg = parse_config("max_ticks = 77\n")
        out = config_overrides(cfg, max_ticks=None)
        assert out.max_ticks == 77

    def test_overrides_are_validated(self):
        cfg = parse_config("")
        with pytest.raises(ConfigError, match="controller"):
            config_overrides(cfg, controller="nope")

    def test_copies_share_no_params(self):
        cfg = parse_config("removals = 5:0\n")
        a = config_overrides(cfg, seed=1)
        b = config_overrides(cfg, seed=2)
        a.ga.population = 4
        a.aco.alpha = 3.0
        a.bco.scout_prob = 0.5
        a.removals.append((6, 1))
        for other in (cfg, b):
            assert other.ga.population == 12
            assert other.aco.alpha == 1.0
            assert other.bco.scout_prob == 0.1
            assert other.removals == [(5, 0)]


def finite(lo, hi, **kwargs):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kwargs)


@st.composite
def valid_configs(draw):
    radius = draw(st.integers(1, 40))
    margin = draw(st.integers(0, radius - 1))
    k = radius - margin

    def cell():
        q = draw(st.integers(-k, k))
        return HexCoord(q, draw(st.integers(max(-k, -q - k), min(k, -q + k))))

    target, entry = cell(), cell()
    assume(entry != target)
    robots = draw(st.integers(1, min(3 * k * (k + 1) + 1, 300)))
    removal = st.tuples(st.integers(0, 10**6), st.integers(0, robots - 1))
    population = draw(st.integers(1, 50)) * 2
    cfg = ScenarioConfig(
        controller=draw(st.sampled_from(CONTROLLERS)),
        robots=robots,
        radius=radius,
        margin=margin,
        target=target,
        entry=entry,
        seed=draw(st.integers(0, 2**64 - 1)),
        max_ticks=draw(st.integers(0, 10**6)),
        comm_range=draw(st.integers(1, 50)),
        ttl=draw(st.integers(0, 50)),
        sensing_radius=draw(st.integers(0, 50)),
        removals=draw(st.lists(removal, max_size=5, unique_by=lambda removal: removal[1])),
        ga=GaParams(
            population=population,
            generations=draw(st.integers(1, 50)),
            tournament_k=draw(st.integers(1, population)),
            crossover_prob=draw(finite(0.0, 1.0)),
            mutation_prob=draw(finite(0.0, 1.0)),
            alignment_weight=draw(finite(0.0, 1e6)),
        ),
        aco=AcoParams(
            evaporation=draw(finite(0.0, 1.0, exclude_min=True, exclude_max=True)),
            deposit_scale=draw(finite(0.0, 1e6, exclude_min=True)),
            alpha=draw(finite(0.0, 10.0)),
            beta=draw(finite(0.0, 10.0)),
            floor=draw(finite(0.0, 1e6)),
        ),
        bco=BcoParams(
            follow_gain=draw(finite(0.0, 1e6, exclude_min=True)),
            scout_prob=draw(finite(0.0, 1.0)),
            leader_timeout=draw(st.integers(1, 1000)),
        ),
    )
    # Valid only while the six largest transition weights sum to a finite float.
    aco = cfg.aco
    try:
        assume(math.isfinite(6 * (aco.deposit_scale / aco.evaporation + aco.floor) ** aco.alpha))
    except OverflowError:
        assume(False)
    return cfg


def render(value) -> str:
    if isinstance(value, HexCoord):
        return f"{value.q},{value.r}"
    if isinstance(value, list):
        return ", ".join(f"{tick}:{rid}" for tick, rid in value)
    return repr(value) if isinstance(value, float) else str(value)


def key_lines(params, defaults, write_default) -> list[str]:
    """A line per key, a key left at its default only where write_default
    draws True."""
    return [
        f"{f.name} = {render(getattr(params, f.name))}"
        for f in fields(params)
        if f.name not in CONTROLLERS
        and (getattr(params, f.name) != getattr(defaults, f.name) or write_default())
    ]


class TestRoundTrip:
    @settings(max_examples=200, deadline=None, database=None)
    @given(valid_configs(), st.data())
    def test_written_config_parses_back_equal(self, cfg, data):
        write_default = lambda: data.draw(st.booleans())  # noqa: E731
        lines = key_lines(cfg, ScenarioConfig(), write_default)
        for name in CONTROLLERS:
            section = key_lines(getattr(cfg, name), getattr(ScenarioConfig(), name), write_default)
            if section or write_default():
                lines += ["", f"[{name}]", *section]
        assert parse_config("\n".join(lines) + "\n") == cfg


# The number grammar, stated apart from the parser: ASCII digits, an optional
# '-', no leading zero on an integer part other than 0; a float may add a
# fraction and an exponent, whose digits may start with zeros (repr(1e-05)).
INT_GRAMMAR = r"-?(0|[1-9][0-9]*)"
FLOAT_GRAMMAR = INT_GRAMMAR + r"(\.[0-9]+)?([eE][+-]?[0-9]+)?"
NUMBERISH = st.text(alphabet="0123456789-+_.eE\u0663\uff12", max_size=8)


def grammar_float(text):
    """float(text) if the grammar takes text, else None: it must be finite,
    and a literal with a nonzero digit before its exponent must not be 0.0."""
    if not re.fullmatch(FLOAT_GRAMMAR, text):
        return None
    value = float(text)
    nonzero = any(c in "123456789" for c in re.split("[eE]", text)[0])
    if not math.isfinite(value) or (nonzero and value == 0.0):
        return None
    return value


class TestNumberGrammar:
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.one_of(NUMBERISH, st.from_regex(INT_GRAMMAR, fullmatch=True)))
    def test_integer_text_parses_only_in_the_grammar(self, text):
        if re.fullmatch(INT_GRAMMAR, text):
            assert ascii_int(text) == int(text)
        else:
            with pytest.raises(ConfigError, match=r"^line 1: bad value for 'max_ticks': "):
                parse_config(f"max_ticks = {text}\n")
            with pytest.raises(ConfigError, match=r"^line 1: bad value for 'target': "):
                parse_config(f"target = 1,{text}\n")

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.one_of(NUMBERISH, st.from_regex(FLOAT_GRAMMAR, fullmatch=True)))
    def test_float_text_parses_only_in_the_grammar(self, text):
        value = grammar_float(text)
        if value is not None:
            assert ascii_float(text) == value
        else:
            with pytest.raises(ConfigError, match=r"^line 2: bad value for 'alpha': "):
                parse_config(f"[aco]\nalpha = {text}\n")

    @pytest.mark.parametrize("text", ["1e-05", "5e-324", "1.7976931348623157e+308", "0e-400"])
    def test_float_reprs_and_zero_literals_parse(self, text):
        assert ascii_float(text) == float(text)
