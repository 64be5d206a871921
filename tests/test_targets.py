import random

import pytest
import yaml

from bdi_pentest.actions import ACTIONS, PROBE
from bdi_pentest.beliefs import source_of
from bdi_pentest.targets import (
    ConfigError,
    Credential,
    RunRng,
    Scenario,
    Service,
    Staff,
    TargetSpec,
    Thresholds,
    Vulnerability,
    _read_yaml,
    handle_probe,
    load_scenario,
)
from bdi_pentest.terms import literal_to_str

SINGLE_TARGET_YAML = """
name: single_target
seed: 20260823
targets:
  - name: target
    os: linux
    ports: [80, 22, 3306]
    services:
      - {port: 80, name: nginx}
      - {port: 22, name: ssh}
      - {port: 3306, name: mysql}
    vulnerabilities:
      - {id: cve_remote, kind: remote}
      - {id: cve_local, kind: local}
    credentials:
      - {service: ssh, secret: "456"}
    subnet: lan0
"""


def test_load_full_scenario():
    scenario = load_scenario(SINGLE_TARGET_YAML)
    assert scenario.name == "single_target"
    assert scenario.seed == 20260823
    assert scenario.max_cycles == 10_000
    assert scenario.thresholds == Thresholds()
    spec = scenario.target("target")
    assert spec.os == "linux"
    assert spec.ports == (80, 22, 3306)
    assert spec.service_names() == ("nginx", "ssh", "mysql")
    assert spec.vulnerability_by_id("cve_local") == Vulnerability("cve_local", "local")
    assert spec.credential_for("ssh") == Credential("ssh", "456")
    assert spec.credential_for("mysql") is None
    assert scenario.target("nope") is None


def test_defaults_fill_in():
    scenario = load_scenario("targets:\n  - {name: t, os: linux}\n")
    assert scenario.name == "scenario"
    assert scenario.seed == 0
    spec = scenario.targets[0]
    assert spec.ports == () and spec.subnet == "lan" and spec.staff == ()


def test_threshold_overrides():
    scenario = load_scenario(
        "thresholds: {password: 0.5}\ntargets:\n  - {name: t, os: linux}\n")
    assert scenario.thresholds.password == 0.5
    assert scenario.thresholds.bof_remote == 0.5


@pytest.mark.parametrize("text,path_fragment", [
    ("targets: []", "targets"),
    ("{}", "targets"),
    ("targets:\n  - {os: linux}", "targets[0].name"),
    ("targets:\n  - {name: t}", "targets[0].os"),
    ("targets:\n  - {name: t, os: linux, ports: [0]}", "ports[0]"),
    ("targets:\n  - {name: t, os: linux, ports: [99999]}", "ports[0]"),
    ("targets:\n  - name: t\n    os: linux\n    services: [{port: 22, name: ssh}]",
     "services[0].port"),
    ("targets:\n  - name: t\n    os: linux\n    ports: [1]\n    services: [{port: true, name: ssh}]",
     "services[0].port"),
    ("targets:\n  - name: t\n    os: linux\n    vulnerabilities: [{id: v, kind: warp}]",
     "vulnerabilities[0].kind"),
    ("targets:\n  - name: t\n    os: linux\n    vulnerabilities:\n"
     "      - {id: v, kind: remote}\n      - {id: v, kind: local}",
     "vulnerabilities[1].id"),
    ("targets:\n  - {name: t, os: linux}\n  - {name: t, os: linux}",
     "targets[1].name"),
    ("thresholds: {password: 1.5}\ntargets:\n  - {name: t, os: linux}",
     "thresholds.password"),
    ("thresholds: {teleport: 0.5}\ntargets:\n  - {name: t, os: linux}",
     "thresholds.teleport"),
    ("seed: -1\ntargets:\n  - {name: t, os: linux}", "seed"),
    ("max_cycles: 0\ntargets:\n  - {name: t, os: linux}", "max_cycles"),
    ("priorities: {p: high}\ntargets:\n  - {name: t, os: linux}", "<root>.priorities"),
    ("priorities: {bof_atack: 99}\ntargets:\n  - {name: t, os: linux}", "<root>.priorities"),
    ("targets:\n  - name: t\n    os: linux\n    staff: [{email: a@b, susceptibility: 2}]",
     "staff[0].susceptibility"),
    ("- not a mapping", "<root>"),
    ("targets: [\n", "<root>"),
    # Unknown keys, at every level, instead of a silent default.
    ("max_cycle: 3\ntargets:\n  - {name: t, os: linux}", "<root>.max_cycle"),
    ("agent_program: a.asl\ntargets:\n  - {name: t, os: linux}", "<root>.agent_program"),
    ("tables: {}\ntargets:\n  - {name: t, os: linux}", "<root>.tables"),
    ("targets:\n  - {name: t, os: linux, port: [22]}", "targets[0].port"),
    ("targets:\n  - name: t\n    os: linux\n    ports: [22]\n"
     "    services: [{port: 22, name: ssh, version: 7}]", "targets[0].services[0].version"),
    ("targets:\n  - name: t\n    os: linux\n    vulnerabilities: [{id: v, kind: local, cvss: 9}]",
     "targets[0].vulnerabilities[0].cvss"),
    ("targets:\n  - name: t\n    os: linux\n"
     "    credentials: [{service: ssh, secret: x, user: u}]", "targets[0].credentials[0].user"),
    ("targets:\n  - name: t\n    os: linux\n    staff: [{email: a@b, role: it}]",
     "targets[0].staff[0].role"),
    # Anything listed twice where only the first would count.
    ("targets:\n  - {name: t, os: linux, ports: [22, 22, 80]}", "targets[0].ports[1]"),
    ("targets:\n  - name: t\n    os: linux\n    ports: [22]\n"
     "    services: [{port: 22, name: ssh}, {port: 22, name: telnet}]",
     "targets[0].services[1].port"),
    ("targets:\n  - name: t\n    os: linux\n"
     "    credentials: [{service: ssh, secret: a}, {service: ssh, secret: b}]",
     "targets[0].credentials[1].service"),
    ("targets:\n  - name: t\n    os: linux\n    staff: [{email: a@b}, {email: a@b}]",
     "targets[0].staff[1].email"),
    # A secret is text or an integer; nothing else is turned into text.
    *((f"targets:\n  - name: t\n    os: linux\n    credentials: [{{service: ssh, secret: {v}}}]",
       "targets[0].credentials[0].secret") for v in ("null", "true", "[a, b]", "1.50")),
])
def test_config_errors_carry_field_path(text, path_fragment):
    with pytest.raises(ConfigError) as e:
        load_scenario(text)
    assert path_fragment in e.value.path


@pytest.mark.parametrize("text,where", [
    ("name: \x01\n", "#x0001: control characters are not allowed at line 1, column 7"),
    ("name: \u00e9\x01\n", "#x0001: control characters are not allowed at line 1, column 8"),
    ("a: 1\r\n\u2028\x85b: \x01", "#x0001: control characters are not allowed at line 4, "
     "column 4"),
    # UTF-8, which libyaml reads, cannot hold a lone surrogate.
    ("name: \ud800\n", "#xd800: invalid Unicode character at line 1, column 7"),
])
def test_an_unacceptable_character_is_refused_at_its_line_and_column(text, where):
    with pytest.raises(ConfigError) as e:
        load_scenario(text)
    assert str(e.value) == f"<root>: invalid YAML: unacceptable character {where}"


def _loaded_depth(value, open_=()):
    """Levels of a loaded YAML value, a scalar counting one; unbounded for a
    value that holds itself."""
    if id(value) in open_:
        return float("inf")
    if isinstance(value, dict):
        below = [x for pair in value.items() for x in pair]
    elif isinstance(value, list):
        below = value
    else:
        return 1
    return 1 + max((_loaded_depth(x, open_ + (id(value),)) for x in below), default=0)


def _yaml_depth_cases():
    for k in range(17):
        # Shallow, and either side of 16 levels.
        for j in {0, 13 - k, 14 - k, 15 - k} & set(range(17)):
            k_, j_ = "[" * k + "1" + "]" * k, ("[" * j, "]" * j)
            yield f"name: &a {k_}\nseed: {j_[0]}*a{j_[1]}\n"
            yield f"name: &a [&b {k_}]\nseed: {j_[0]}*b{j_[1]}\nx: *a\n"
            yield f"name: &a [&b {k_}, &c [{j_[0]}*b{j_[1]}]]\nseed: [*c]\n"
    yield "seed: &x [*x]\n"


def test_yaml_nested_past_16_levels_is_refused_aliases_included():
    # Refused exactly when the value PyYAML would load, aliases expanded, is
    # more than 16 levels deep; everything else reaches the field checks.
    for text in _yaml_depth_cases():
        too_deep = _loaded_depth(yaml.safe_load(text)) > 16
        with pytest.raises(ConfigError) as e:
            load_scenario(text)
        assert ("nested more than 16 levels deep" in str(e.value)) == too_deep, text


@pytest.mark.parametrize("text,message", [
    # An alias to an anchor never defined is PyYAML's error, with its place.
    ("a: *y\n", "invalid YAML: found undefined alias 'y' at line 1, column 4"),
    ("a: [1, *y]\n", "invalid YAML: found undefined alias 'y' at line 1, column 8"),
    # A later anchor of that name does not define it where the alias stands.
    ("a: *y\nb: &y 1\n", "invalid YAML: found undefined alias 'y' at line 1, column 4"),
    # An alias inside its own, still open, anchor is unbounded.
    ("a: &x [*x]\n", "nested more than 16 levels deep at line 1, column 8"),
    ("a: &x {k: [1, *x]}\n", "nested more than 16 levels deep at line 1, column 15"),
    ("a: &y 1\nb: &y 2\n", "invalid YAML: found duplicate anchor 'y'; first occurrence: "
     "second occurrence at line 2, column 4"),
], ids=["undefined", "undefined-in-list", "defined-later", "inside-own-anchor",
        "inside-own-mapping", "duplicate-anchor"])
def test_yaml_alias_errors(text, message):
    with pytest.raises(ConfigError) as e:
        load_scenario(text)
    assert str(e.value) == f"<root>: {message}"


ONE = "targets: [{name: t, os: linux}]\n"


@pytest.mark.parametrize("text", [
    # Merge keys: one mapping; a list of them, the earlier winning a key
    # both hold; a mapping's own key over a merged one; a merged mapping
    # that itself merges; a merge in a scenario; and merges refused.
    "a: &a {x: 1, y: 2}\nb: {<<: *a, z: 3}\n",
    "a: &a {x: 1, y: 2}\nb: &b {y: 3, w: 4}\nc: {<<: [*a, *b]}\n",
    "a: &a {x: 1, y: 2}\nb: {y: 5, <<: *a, x: 6}\n",
    "a: &a {x: 1}\nb: &b {<<: *a, y: 2}\nc: {<<: *b, z: 3}\n",
    "a: &a {x: 1}\nb: {<<: *a, <<: {x: 2, v: 0}}\n",
    "targets:\n  - &t {name: a, os: linux}\n  - {<<: *t, name: b}\n",
    "a: {<<: 1}\n",
    "a: {<<: [{x: 1}, 2]}\n",
    "a: {<<: [[1]]}\n",
    "a: [<<]\n",
    "a: {<<: {x: 1}}\nb: [<<]\n",
    # A plain `=` key is the text "="; a quoted "<<" is no merge key.
    "=: 1\n",
    "a: =\n",
    "a: {&e =: *e}\n",
    '"<<": {x: 1}\n',
    # Explicit and non-specific tags on scalars.
    "a: !!str 12\n",
    'a: !!int "7"\n',
    "a: !!float 1\n",
    "a: !!bool\n",
    "a: !!bool yes\n",
    "a: !!null\n",
    "a: !!binary aGVsbG8=\n",
    "a: 2001-12-14t21:59:43.10-05:00\n",
    "a: 2002-12-14\n",
    "a: ! 12\n",
    "a: !foo x\n",
    # Texts a scalar's constructor cannot read.
    "a: 2020-13-45\n",
    "a: !!float abc\n",
    "a: " + ":".join(["1"] * 200) + ".5\n",
    # Of a construction error and a later syntax error, the syntax error;
    # of two construction errors, the shallower first.
    "a: !foo x\nb: [1\n",
    "a: [!!bool maybe]\nb: !foo x\n",
    # A complex key, refused as unhashable; an anchored scalar reused as a key.
    "? [a]\n: 1\n",
    "a: &k name\n*k : x\n",
    # An alias of 2 levels where 14 are open, after a sibling 14 deep.
    "a: " + "[" * 12 + "1" + "]" * 12 + "\nb: &x [1]\nc: " + "[" * 13 + "*x" + "]" * 13 + "\n",
    # Empty, comments only, and two documents.
    "",
    "# just a comment\n",
    "a: 1\n---\nb: 2\n",
    "---\n...\n",
    ONE,
], ids=["merge", "merge-list", "merge-explicit-wins", "merge-of-merge", "merge-twice",
        "merge-in-scenario", "merge-scalar", "merge-list-of-scalar", "merge-list-of-list",
        "merge-key-as-item", "merge-key-then-item", "equals-key", "equals-value",
        "equals-key-aliased", "quoted-merge-key", "str-tag",
        "int-tag", "float-tag", "bare-bool-tag", "bool-tag", "null-tag", "binary-tag",
        "timestamp", "date", "non-specific-tag", "local-tag", "bad-date", "bad-float",
        "float-overflow", "syntax-error-last", "shallower-error-first", "complex-key", "anchored-key", "alias-16-deep", "empty", "comments-only",
        "two-documents", "explicit-empty", "scenario"])
def test_the_reader_reads_yaml_as_the_safe_loader_does(text):
    # The same value, or both refuse: with an error of the same kind, and
    # where PyYAML's composer or constructor refuses, with the same problem
    # at the same place (libyaml words its syntax errors its own way).
    try:
        reference = yaml.load(text, Loader=yaml.SafeLoader)
    except Exception as e:  # PyYAML refuses some texts with an exception of Python's
        reference = e
    try:
        value = _read_yaml(text.encode())
    except (yaml.YAMLError, ConfigError) as e:
        assert isinstance(reference, Exception), text
        if isinstance(reference, yaml.MarkedYAMLError):
            assert type(e) is type(reference)
        if isinstance(reference, (yaml.composer.ComposerError, yaml.constructor.ConstructorError)):
            assert (e.problem, e.problem_mark.line, e.problem_mark.column) == (
                reference.problem, reference.problem_mark.line, reference.problem_mark.column)
    else:
        assert repr(value) == repr(reference)
    # A scenario loads from it, or is refused on one line.
    try:
        load_scenario(text)
    except ConfigError as e:
        assert "\n" not in str(e) and len(str(e)) < 300


@pytest.mark.parametrize("text,where", [
    ("a: !!set {x: null}\n", "mapping tagged 'tag:yaml.org,2002:set', which is not read "
     "at line 1, column 4"),
    ("a:\n  - !!omap [{x: 1}]\n", "sequence tagged 'tag:yaml.org,2002:omap', which is not "
     "read at line 2, column 5"),
    ("a: !!pairs [{x: 1}, {x: 2}]\n", "sequence tagged 'tag:yaml.org,2002:pairs', which is "
     "not read at line 1, column 4"),
    ("a: !tag {x: 1}\n", "mapping tagged '!tag', which is not read at line 1, column 4"),
    ("a: !!str [x]\n", "sequence tagged 'tag:yaml.org,2002:str', which is not read "
     "at line 1, column 4"),
    ("<<: !!set {seed: 1}\n" + ONE, "mapping tagged 'tag:yaml.org,2002:set', which is not "
     "read at line 1, column 5"),
], ids=["set", "omap", "pairs", "local-tag", "str-tag", "set-merged"])
def test_a_collection_tagged_other_than_map_or_seq_is_refused_at_it(text, where):
    with pytest.raises(ConfigError) as e:
        load_scenario(text)
    assert str(e.value) == f"<root>: invalid YAML: found a {where}"


@pytest.mark.parametrize("text,message", [
    ("seed: !!int abc\n", "could not construct 'tag:yaml.org,2002:int' from 'abc'"),
    ("seed: !!int 0xzz\n", "could not construct 'tag:yaml.org,2002:int' from '0xzz'"),
    ("seed: 1" + "0" * 5000 + "\n", "integer has too many digits"),
], ids=["int-tag-text", "int-tag-bad-hex", "int-5000-digits"])
def test_an_int_is_refused_at_it_with_why(text, message):
    # Only a decimal form past the interpreter's digit limit has too many digits.
    with pytest.raises(ConfigError) as e:
        load_scenario(text + ONE)
    assert str(e.value) == f"<root>: invalid YAML: {message} at line 1, column 7"


def test_a_long_tag_is_shortened_in_its_error_line():
    with pytest.raises(ConfigError) as e:
        load_scenario("seed: !" + "x" * 1000 + " 1\n" + ONE)
    assert "could not determine a constructor for the tag '!xxx" in str(e.value)
    assert str(e.value).endswith("at line 1, column 7") and len(str(e.value)) < 300


RICH_YAML = """
name: rich
seed: 7
max_cycles: 50
thresholds: {password: 0.9, sniffer: 0}
targets:
  - name: a
    os: linux
    ports: [80, 22]
    services:
      - {port: 80, name: apache}
      - {port: 22, name: ssh}
    vulnerabilities:
      - {id: v1, kind: sqli}
    credentials:
      - {service: ssh, secret: 1234}
    subnet: dmz
    staff:
      - {email: a@b.org, susceptibility: 0.2}
      - {email: c@b.org}
  - {name: b, os: windows}
"""


def test_rich_scenario_loads_to_literal():
    assert load_scenario(RICH_YAML) == Scenario(
        "rich",
        (TargetSpec("a", "linux", (80, 22), (Service(80, "apache"), Service(22, "ssh")),
                    (Vulnerability("v1", "sqli"),), (Credential("ssh", "1234"),),
                    "dmz", (Staff("a@b.org", 0.2), Staff("c@b.org", 0.15))),
         TargetSpec("b", "windows")),
        Thresholds(password=0.9, sniffer=0.0),
        seed=7,
        max_cycles=50,
    )


def test_subnet_peers(single_target_scenario):
    assert single_target_scenario.tables["target"].peers == ()
    two = Scenario("s", (TargetSpec("a", "linux", subnet="lan0"),
                         TargetSpec("b", "linux", subnet="lan0"),
                         TargetSpec("c", "linux", subnet="lan1")))
    assert [t.name for t in two.tables["a"].peers] == ["b"]


class TestHandleProbe:
    SPEC = TargetSpec("target", "linux", (80, 22),
                      (Service(80, "nginx"), Service(22, "ssh")),
                      (Vulnerability("cve_remote", "remote"),),
                      staff=(Staff("ops@example.org"),))

    def probe(self, action):
        return handle_probe(self.SPEC, ACTIONS[action].facet, source_of(self.SPEC.name))

    def percepts(self, action):
        return [literal_to_str(l) for l in self.probe(action)[0]]

    def test_each_facet(self):
        assert self.percepts("probe_os") == ["ostype(linux)[source(target)]"]
        assert self.percepts("probe_ports") == ["port(80)[source(target)]",
                                                "port(22)[source(target)]"]
        assert self.percepts("probe_services") == ["service(nginx)[source(target)]",
                                                   "service(ssh)[source(target)]"]
        assert self.percepts("probe_vulnerabilities") == [
            "vulnerability(cve_remote)[source(target)]"]
        assert self.percepts("probe_emails") == ['email("ops@example.org")[source(target)]']

    def test_one_trace_line_per_percept(self):
        assert self.probe("probe_ports")[1] == ("The target port are :80",
                                                "The target port are :22")
        assert self.probe("probe_vulnerabilities")[1] == (
            "The target remote vulnerability is :cve_remote",)
        for name, row in ACTIONS.items():
            if row.kind == PROBE:
                percepts, lines = self.probe(name)
                assert len(percepts) == len(lines)

    def test_probe_is_pure(self):
        assert self.probe("probe_ports") == self.probe("probe_ports")


class TestRunRng:
    def test_matches_seeded_mersenne_twister(self):
        rng = RunRng(1234)
        ref = random.Random(1234)
        assert [rng.chance(0.5)[1] for _ in range(5)] == [ref.random() for _ in range(5)]
        assert rng.consumed == 5

    def test_scripted_prefix_then_seeded_tail(self):
        rng = RunRng(1234, (0.25, 0.75))
        ref = random.Random(1234).random()
        assert rng.chance(0.5) == (False, 0.25)
        assert rng.chance(0.5) == (True, 0.75)
        assert rng.chance(0.5) == (ref >= 0.5, ref)
        assert rng.consumed == 3

    def test_draw_equal_to_threshold_succeeds(self):
        rng = RunRng(0, (0.8, 0.8, 0.0, 0.0))
        assert rng.chance(0.8) == (True, 0.8)
        assert rng.chance(0.80000001) == (False, 0.8)
        assert rng.chance(0.0) == (True, 0.0)
        assert rng.chance(1.0) == (False, 0.0)
        # Every draw counts, won or lost, scripted or seeded.
        assert rng.consumed == 4
        rng.chance(1.0)
        assert rng.consumed == 5
