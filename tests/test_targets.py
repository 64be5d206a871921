import random

import pytest
import yaml

from bdi_pentest.actions import ACTIONS, PROBE
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
        return handle_probe(self.SPEC, ACTIONS[action].facet)

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
        assert self.probe("probe_ports")[1] == ["The target port are :80",
                                                "The target port are :22"]
        assert self.probe("probe_vulnerabilities")[1] == [
            "The target remote vulnerability is :cve_remote"]
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
