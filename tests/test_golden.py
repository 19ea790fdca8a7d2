"""Golden outputs: every file a CLI run writes must match, byte for byte, the
sha256 digests recorded from the code at commit
d57707fc9afd6ced4fab26110b72f2d75d3ff215, before any refactor of ``src/``.

A run is a pure function of (config, seed), so any change to a digest here
is a change in behaviour. Re-record only for a change that means to alter
the outputs, and say so.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hexswarm import cli, engine
from hexswarm.cli import build_parser, field_csv, main, trace_csv, tracker_csv
from hexswarm.comms import TrackerLog
from hexswarm.config import config_overrides, parse_config
from hexswarm.engine import run

REPO = Path(__file__).resolve().parents[1]

# (scenario file, extra CLI flags) -> (exit code, {output file: sha256})
GOLDEN = {
    ("scenarios/ga_default.cfg", "--seed 1"): (2, {
        "summary.json": "8f1cd2a8d5d556218c22cfd1fe8a774e1530ea3caf2fcf65bd621bde0da1ed58",
        "trace.csv": "0cc2acc76d6899b7f78a9af2252818e1b7ce898430a80ac1f82e17c555a49b45",
        "tracker.csv": "b34a762fff45a9ac9187bee4fdff368ac144d9c883cc87606ab9e58a8f62a8cf",
    }),
    ("scenarios/ga_default.cfg", "--seed 2"): (2, {
        "summary.json": "b110daeca32bba87c9a80577ee25bb3b176f76c9e8ff1c96019803f8c551a714",
        "trace.csv": "53d557319f564cb32d1de1b5d38f0bba15af8a599b2d6b3e8552711f52c18916",
        "tracker.csv": "29ef960ea75aaeae6bc296ad7c6caa21b72e706cd44e74d244fae5ee0ea493a6",
    }),
    ("scenarios/ga_default.cfg", "--seed 3"): (2, {
        "summary.json": "d555f9a1577c3eb51fb5b0310dd4fc5e1accba3412a7d7a6eea401622c548b10",
        "trace.csv": "185d0d091956ce0dae000217282a5ea12b0a602d2a8d107fefc55cd678bd2576",
        "tracker.csv": "179fcb69e785082a62f938635f3ac33cfa563bd06140207c0ecee7fbe19a6149",
    }),
    ("scenarios/aco_trails.cfg", "--seed 1"): (2, {
        "field.csv": "ff5620f4920b068cdaa220d7115d02779798a737bc4e18e78c4b656267e0aea0",
        "summary.json": "54b1c352e64254f61f21fb5ff8e46e7fc6b31762cbc325077c425b5e887abb5d",
        "trace.csv": "b316565a74875794694c0851dcb27d0913b66c7047a5192ac655ccb452e9948f",
        "tracker.csv": "b045d80ef1881074c4251688642d0638bd0d56fae1af0c5645f5b49e7a4b7436",
    }),
    ("scenarios/aco_trails.cfg", "--seed 2"): (2, {
        "field.csv": "8d5f2532529ada8c26143e8cc7df769fe19881bbcf978adc31efcc2bd6c408b0",
        "summary.json": "c6a0a0400449f5b51747e3108c07f210bd18bafbfc4f2b0257e74124ea66e8bc",
        "trace.csv": "391cd13802c6e8b56f761fa66debea7ee3d2a45f8366db469d9726fc679a4bf0",
        "tracker.csv": "9b370dc9c33754b7ed129bf48628e97419181f19b1898551b0de6bab79871b08",
    }),
    ("scenarios/aco_trails.cfg", "--seed 3"): (2, {
        "field.csv": "03dff1d7c7207b28d150b5c2381a38b865425e651e9eaccaed1ed248a0a27f7d",
        "summary.json": "63fbaa4b76e1579be406a8371a618415358df72aa7d3284efbc828de90546d8c",
        "trace.csv": "05b523400e24ca1726a92f5a4d30a15a71776ceceeed50290125613a99e42d98",
        "tracker.csv": "9510e10a0d1104f1ef8c19e502ba8951b92f3b5c5956686e93649b757a5c33db",
    }),
    ("scenarios/bco_failover.cfg", "--seed 1"): (2, {
        "summary.json": "6c78ef4176e70625b9275c6a65782063bb4ce290982dd4e28e088c019a1282e6",
        "trace.csv": "155754f03c1085360dc689fd03bfcc4ba652eb3f70370e98870a0ef8160481e6",
        "tracker.csv": "8f9819e066ea52eff2c1a0dc82f63b09641141d0bef3e2a22c2c549f922532de",
    }),
    ("scenarios/bco_failover.cfg", "--seed 2"): (2, {
        "summary.json": "765c5274a42f123bcdf63d60e23fe0659c42d44757b450052810bf28f1228fb0",
        "trace.csv": "4ca075f835f8cb46afff6a91b66e41f26b3d25418ccf0bcc677ac227a131a4c3",
        "tracker.csv": "537ea6e3fb3225b9e1af41b55443e05ac3772f6c624e608cfd7dbc55e58738a3",
    }),
    ("scenarios/bco_failover.cfg", "--seed 3"): (2, {
        "summary.json": "c2ca87a47491370acb0f63ba566f7994dcae872c6d6e84575a9d0e3e23585b9c",
        "trace.csv": "8b4cfabf6a33b9f2b8bdab2ef56692af47c132debdf9bae0459dbb2fc2973551",
        "tracker.csv": "733ad7057762a26bba241b75fc65783c6f98d07bb507651260d32c202cf85e50",
    }),
    ("perfbench/scenarios/dense.cfg", "--controller aco --seed 1 --ticks 100"): (2, {
        "field.csv": "26d798902a38307c6aa0b20d2f5152293a34f3a436d0363bf96c4b8d190b62a4",
        "summary.json": "2e276095955242bd45d344a807bede56de307f5f2c446fe4a1b92595d28a5e51",
        "trace.csv": "5d0216d173eed5dbb4e32cf5c4ee1a1b76c5e5227aa55248035a0396974f5e90",
        "tracker.csv": "ff81f6b1eb2846fa0759898d74b487e5457919edc2820ea55f6c7991e71d7f08",
    }),
    # The two dense cases below were recorded at commit
    # 2fed478b3bbb8951eb402cec9ae30fbb1b8b514b, before flooding and neighbour
    # discovery were rewritten. bco sends several messages per origin (dance
    # advert plus target report); the ga batch reads only the tracker count.
    ("perfbench/scenarios/dense.cfg", "--controller bco --seed 1 --ticks 100"): (2, {
        "summary.json": "4de80e1b018ad6c305a00d5b7dab45d2c5c510f03a8c04af5de04ab3c2e8afc3",
        "trace.csv": "7301b56fc4dcaf298d33b9e5aedecac31c532b5d7376ae1c1876fa01d436b8af",
        "tracker.csv": "958c39dff7b5151d77846218b521394f7c1fa7782bd1a254b44d1c35acc7ba99",
    }),
    ("perfbench/scenarios/dense.cfg", "--controller ga --seed 1 --ticks 100 --batch 2"): (0, {
        "summary.json": "663330e184903854187fe924635f647c1a0b5af9dd59ac4a19a94a02465af7ff",
        "trace_1.csv": "35aaec9861988996b95283da9b9c83f8e767c93f742a281cbaddaa71de40fd81",
        "trace_2.csv": "4abe08df5a2a9252894330d8575b54a1b87f1ff8ea9e74763d3b26ccf51e85bd",
    }),
    # Recorded at commit 479887270b88fc15d314dcc4d620a10e9178c398, before the
    # GA population became flat gene indices: all 250 ticks, so the full
    # swarm of 200 runs the GA for the last 50.
    ("perfbench/scenarios/dense.cfg", "--controller ga --seed 3"): (2, {
        "summary.json": "5e8b6154d54d3396b7258611df6d0d2b09f34ddec317b41206e5e156c750b3a8",
        "trace.csv": "6f19f1cccc11e598510f65731385c64ef0e79e4e711c9a23a27e375e6cf1ecb4",
        "tracker.csv": "cedb85e530649abf2041effe3a3501e593fe27f265d8c88c491e64ed19aa0fbc",
    }),
}


@pytest.mark.parametrize(
    "scenario,flags", list(GOLDEN), ids=[f"{s.rsplit('/', 1)[-1]} {f}" for s, f in GOLDEN]
)
def test_outputs_match_recorded_digests(tmp_path, scenario, flags):
    code = main(["--scenario", str(REPO / scenario), *flags.split(), "--out", str(tmp_path)])
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())
    }
    assert (code, digests) == GOLDEN[(scenario, flags)]


def tracker_writer(monkeypatch, cpus: int) -> None:
    """A single run's tracker.csv rows are formatted by a forked writer
    process where 2 CPUs or more may be used, and by the run's own flood on
    1, where nothing may fork."""
    monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
    if cpus == 1:

        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "scenario,flags", list(GOLDEN), ids=[f"{s.rsplit('/', 1)[-1]} {f}" for s, f in GOLDEN]
)
def test_digests_with_and_without_the_tracker_writer(tmp_path, monkeypatch, scenario, flags, cpus):
    tracker_writer(monkeypatch, cpus)
    test_outputs_match_recorded_digests(tmp_path, scenario, flags)


# Recorded at commit ecfec9bb872ad9c7bf893329c1b62e03eea66794, before a
# single run's tracker.csv rows were formatted in a writer process: with
# ttl 0 every flood is empty, so tracker.csv holds its header alone.
# The ttl 1000000000 case was recorded at commit
# 91459674f66ad665d443e1e6dfcc3ab491be12e4, before a run's reach came from
# a walk over the neighbour masks: a walk that ran all ttl - 1 rounds would
# not end.
TTL_GOLDEN = {
    0: (2, {
        "field.csv": "1d5bfa6e6c1e5aa1168defd3cfa510395ba83d1163b1d8c0cd5684e49327f423",
        "summary.json": "a4748a037877ea58536252d33a8de5865e3b83bad7e030909724e5cfce94625d",
        "trace.csv": "05e71cf57b32cd5d9693be21260d45a032cc2ea01edf7e5719d17f6aadb1a9dd",
        "tracker.csv": "926bf1c594fee0d86b69c4745548855c5b7bd46e8ed21863a3c913c7774f6644",
    }),
    1000000000: (2, {
        "field.csv": "3e5c474cdc48f434bd66a2c8e4ca8e4a85cb73cf2779ddbb3bdf97fae9d372c9",
        "summary.json": "8ea732dc09cd1a03549eb7a4306a12fe4d6f51abba62f91c3a6e9b7dcfbd1f38",
        "trace.csv": "70a898c439d538252f6de4300cc4ece47d5100c2e059c8e178455275763ccce8",
        "tracker.csv": "634da5eaad8c6bca79e3e24f19339e0816412c0395d3d8c0ed8cfe59777e1b23",
    }),
}

# main on sys.argv[3:], with src (sys.argv[1]) on the path and usable_cpus
# giving sys.argv[2], as tracker_writer sets them; on 1 it must not fork.
MAIN_ON_CPUS = """
import os, sys
sys.path.insert(0, sys.argv[1])
import hexswarm.cli
cpus = int(sys.argv[2])
hexswarm.cli.usable_cpus = lambda: cpus
if cpus == 1:
    def fork():
        raise AssertionError("forked")
    os.fork = fork
sys.exit(hexswarm.cli.main(sys.argv[3:]))
"""


@pytest.mark.parametrize("cpus", [1, 2])
def test_ttl_0_matches_recorded_digests(tmp_path, cpus):
    """Each ttl's run goes in its own process, with a timeout, so that a
    flood that does not end fails the test rather than hanging the suite."""
    for ttl, golden in TTL_GOLDEN.items():
        scenario = tmp_path / f"ttl{ttl}.cfg"
        scenario.write_text(f"ttl = {ttl}\n" + (REPO / "scenarios/aco_trails.cfg").read_text())
        out = tmp_path / f"out{ttl}"
        flags = ["--scenario", str(scenario), "--seed", "2", "--ticks", "120", "--out", str(out)]
        argv = [sys.executable, "-I", "-c", MAIN_ON_CPUS, str(REPO / "src"), str(cpus), *flags]
        code = subprocess.run(argv, timeout=60).returncode
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        assert (code, digests) == golden, ttl


def digests_of(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_each_aco_run_builds_its_own_transition_table(tmp_path):
    """aco_trails, then with other [aco] params, then with another target,
    one after another in this process: each must write what a fresh process
    writes. A robot that knows a target distance weighs a move by eta^beta,
    which follows beta and the target, so a table kept from an earlier run
    would move it elsewhere."""
    base = (REPO / "scenarios/aco_trails.cfg").read_text()
    other_params = base.replace("alpha = 1.0", "alpha = 2.0").replace("beta = 2.0", "beta = 0.5")
    runs = []
    for i, text in enumerate([base, other_params, "target = 4,6\n" + base]):
        scenario = tmp_path / f"aco{i}.cfg"
        scenario.write_text(text)
        flags = ["--scenario", str(scenario), "--seed", "1", "--ticks", "150"]
        code = main([*flags, "--out", str(tmp_path / f"here{i}")])
        fresh = tmp_path / f"fresh{i}"
        argv = [sys.executable, "-I", "-c", MAIN_ON_CPUS, str(REPO / "src"), "2", *flags]
        assert subprocess.run([*argv, "--out", str(fresh)], timeout=60).returncode == code
        assert digests_of(tmp_path / f"here{i}") == digests_of(fresh), i
        runs.append(digests_of(fresh)["trace.csv"])
    assert len(set(runs)) == 3


def test_golden_aco_case_takes_both_branches_of_the_rule(tmp_path, monkeypatch):
    """Over aco_trails at seed 1 some decisions are made in still air (no
    trail on any neighbour) and some with a trail on a neighbour, so its
    digests cover both of ``decide_move_aco``'s ways to the cumulative sum."""
    branches = {"still air": 0, "trail": 0}
    decide = engine.decide_move_aco

    def counting(obs, pher, table, rng):
        # the first six entries of a geometry row are the cell's neighbours
        neighbors = [n for n in table.geometry[obs.situation][:6] if n is not None]
        if obs.situation != table.target and neighbors:
            trail = any(n in pher.levels for n in neighbors)
            branches["trail" if trail else "still air"] += 1
        return decide(obs, pher, table, rng)

    monkeypatch.setattr(engine, "decide_move_aco", counting)
    test_outputs_match_recorded_digests(tmp_path, "scenarios/aco_trails.cfg", "--seed 1")
    assert min(branches.values()) > 0, branches


def cli_configs(scenario: Path, flags: str):
    """(suffix, config) of every simulation of the CLI run (scenario, flags)."""
    args = build_parser().parse_args(flags.split())
    cfg = config_overrides(
        parse_config(scenario.read_text()),
        seed=args.seed,
        controller=args.controller,
        max_ticks=args.ticks,
    )
    for seed in range(cfg.seed, cfg.seed + (args.batch or 1)):
        yield "" if args.batch is None else f"_{seed}", config_overrides(cfg, seed=seed)


def in_memory_files(scenario: Path, flags: str) -> dict[str, bytes]:
    """The csv files of the CLI run (scenario, flags), made in memory: every
    trace row in the list a run keeps by default, every delivery in the
    parts of the ``TrackerLog`` it is given."""
    files = {}
    for suffix, cfg in cli_configs(scenario, flags):
        result = run(cfg, tracker=TrackerLog())
        files[f"trace{suffix}.csv"] = trace_csv(result).encode()
        if cfg.controller == "aco":
            files[f"field{suffix}.csv"] = field_csv(result).encode()
        if not suffix:
            files["tracker.csv"] = tracker_csv(result).encode()
    return files


@pytest.mark.parametrize(
    "scenario,flags", list(GOLDEN), ids=[f"{s.rsplit('/', 1)[-1]} {f}" for s, f in GOLDEN]
)
def test_memory_sinks_match_the_streamed_files(tmp_path, scenario, flags):
    assert_sinks_agree(tmp_path / "out", REPO / scenario, flags)


@pytest.mark.parametrize(
    "scenario,flags", list(GOLDEN), ids=[f"{s.rsplit('/', 1)[-1]} {f}" for s, f in GOLDEN]
)
def test_counting_sink_counts_what_the_log_holds(scenario, flags):
    """The default run keeps no tracker, so no row is formatted; it must
    count every delivery a TrackerLog gets, and the run must not change."""
    for _, cfg in cli_configs(REPO / scenario, flags):
        logged = run(cfg, tracker=TrackerLog())
        counted = run(cfg)
        assert counted.state.tracker is None
        assert counted.state.messages_delivered == len(logged.state.tracker.entries)
        assert (counted.trace, counted.summary) == (logged.trace, logged.summary)


def test_every_shipped_scenario_and_golden_case_still_parses():
    """No shipped input removes a robot twice, so rejecting that rejects none."""
    shipped = sorted(REPO.glob("scenarios/*.cfg")) + sorted(REPO.glob("perfbench/scenarios/*.cfg"))
    removals = {str(p.relative_to(REPO)): parse_config(p.read_text()).removals for p in shipped}
    assert removals == {
        "scenarios/aco_trails.cfg": [],
        "scenarios/bco_failover.cfg": [(100, 0)],
        "scenarios/ga_default.cfg": [],
        "perfbench/scenarios/aco_trails.cfg": [],
        "perfbench/scenarios/bco_failover.cfg": [(100, 0)],
        "perfbench/scenarios/dense.cfg": [],
        "perfbench/scenarios/ga_default.cfg": [],
    }
    for scenario, flags in GOLDEN:
        for _, cfg in cli_configs(REPO / scenario, flags):
            assert cfg.removals == parse_config((REPO / scenario).read_text()).removals
    assert parse_config(GA_PARAMS_SCENARIO).removals == []


def assert_sinks_agree(out: Path, scenario: Path, flags: str) -> None:
    """Adding observers never perturbs behaviour: the CLI's file-backed sinks
    and the library's in-memory ones hold the same bytes."""
    main(["--scenario", str(scenario), *flags.split(), "--out", str(out)])
    streamed = {p.name: p.read_bytes() for p in out.iterdir() if p.suffix == ".csv"}
    assert streamed == in_memory_files(scenario, flags)


# Recorded at commit 4ae4bb926e47cbaa2e9a7bc6d60c487adf3cdf32, before the GA
# stopped at its first gene with the fitness table's maximum. A small
# population, many generations, wide tournaments and heavy mutation make
# robots reach that maximum in a later generation, or never, so an early
# return at the wrong point changes the bytes.
GA_PARAMS_SCENARIO = """\
controller = ga

[ga]
population = 4
generations = 20
tournament_k = 3
mutation_prob = 0.5
alignment_weight = 1.0
"""
GA_PARAMS_GOLDEN = (2, {
    "summary.json": "8f69f4c62e251080ee0f58690247e3ed6002617b840f52a885013d6a967165b3",
    "trace.csv": "dbc82f4ef89ad5513813d948ee1e835ecf0244140e80f435922cd745551df232",
    "tracker.csv": "9502b8f90015f133f741c674540a408643f5208acd90087a709920fa629cbb90",
})


def test_non_default_ga_params_match_recorded_digests(tmp_path):
    scenario = tmp_path / "ga_params.cfg"
    scenario.write_text(GA_PARAMS_SCENARIO)
    out = tmp_path / "out"
    code = main(["--scenario", str(scenario), "--seed", "1", "--out", str(out)])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert (code, digests) == GA_PARAMS_GOLDEN


def test_non_default_ga_params_memory_sinks_match_the_streamed_files(tmp_path):
    scenario = tmp_path / "ga_params.cfg"
    scenario.write_text(GA_PARAMS_SCENARIO)
    assert_sinks_agree(tmp_path / "out", scenario, "--seed 1")
