import itertools

import pytest
from hypothesis import given, settings, strategies as st

from bdi_pentest.actions import (
    ACTIONS,
    ATTACK,
    ActionError,
    Privilege,
    resolve_attack,
)
from bdi_pentest.runner import RunContext
from bdi_pentest.targets import (
    Credential,
    RunRng,
    Scenario,
    Service,
    Staff,
    TargetSpec,
    Thresholds,
    Vulnerability,
)
from bdi_pentest.terms import Atom, Literal, literal_to_str
from test_scenarios import scenarios

TH = Thresholds()

LAN_HOST = TargetSpec(
    name="target",
    os="linux",
    ports=(80, 22, 3306),
    services=(Service(80, "nginx"), Service(22, "ssh"), Service(3306, "mysql")),
    vulnerabilities=(Vulnerability("cve_remote", "remote"),
                     Vulnerability("cve_local", "local")),
    credentials=(Credential("ssh", "456"),),
    subnet="lan0",
)


def fixed(*values):
    return RunRng(0, values)


def attack(action, *args, spec=LAN_HOST, others=(), draw=None,
           privilege=Privilege.NONE):
    """resolve_attack against `spec` in a scenario of it and `others`: the
    reason text of an impossible attack, else (success, draw, evidence)."""
    scenario = Scenario("s", (spec, *others))
    return resolve_attack(scenario, scenario.tables[spec.name], action, args, privilege,
                          draw or fixed(0.9))


class TestPrivilege:
    def test_ordering(self):
        assert Privilege.NONE < Privilege.WEB < Privilege.USER < Privilege.ROOT

    def test_str_and_parse(self):
        assert str(Privilege.ROOT) == "root"
        assert all(Privilege[str(p).upper()] is p for p in Privilege)

    def test_transition_is_monotone_max(self):
        env = RunContext(Scenario("s", (LAN_HOST,)), fixed(0.9, 0.9, 0.9, 0.1))
        password = (Atom("target"), Atom("ssh"))
        bof = (Atom("target"), Atom("cve_remote"), Atom("remote"))
        levels = []
        for action, args in (("password_attack", password), ("bof_attack", bof),
                             ("password_attack", password), ("password_attack", password)):
            env.execute(action, args)
            levels.append(env.privilege["target"])
        # A won password attack after root, and a lost one, keep root.
        assert [s["outcome"] for s in env.steps] == ["success"] * 3 + ["failure"]
        assert levels == [Privilege.USER, Privilege.ROOT, Privilege.ROOT, Privilege.ROOT]


class TestPasswordAttack:
    def test_threshold_boundary_draw_succeeds(self):
        success, _, _ = attack("password_attack", "ssh", draw=fixed(TH.password))
        assert success

    def test_below_threshold_fails_with_evidence(self):
        success, _, evidence = attack("password_attack", "ssh", draw=fixed(0.13183533644420975))
        assert not success
        assert [literal_to_str(l) for l in evidence] == \
            ["password_attack_failed[source(target)]"]

    def test_success_reveals_credential(self):
        _, _, evidence = attack("password_attack", "ssh", draw=fixed(0.95))
        assert [literal_to_str(l) for l in evidence] == \
            ['credential(ssh, "456")[source(target)]']

    def test_unloggable_service_is_precondition_error(self):
        assert "no remotely loggable service 'nginx'" in attack("password_attack", "nginx")
        assert "no remotely loggable service 'ftp'" in attack("password_attack", "ftp")

    def test_no_credential_short_circuits_without_draw(self):
        spec = TargetSpec("t", "linux", (22,), (Service(22, "ssh"),))
        rng = fixed(0.99)
        success, draw, evidence = attack("password_attack", "ssh", spec=spec, draw=rng)
        assert not success and draw is None
        assert [literal_to_str(l) for l in evidence] == ["password_attack_failed[source(t)]"]
        assert rng.consumed == 0


class TestBufferOverflow:
    def test_remote_at_threshold_succeeds(self):
        success, _, evidence = attack("bof_attack", "cve_remote", "remote",
                                      draw=fixed(TH.bof_remote))
        assert success
        assert [literal_to_str(l) for l in evidence] == \
            ['attacked("cve_remote")[source(target)]']

    def test_remote_below_threshold_fails(self):
        success, _, evidence = attack("bof_attack", "cve_remote", "remote", draw=fixed(0.49))
        assert not success
        assert [literal_to_str(l) for l in evidence] == \
            ["bof_attack_failed[source(target)]"]

    def test_local_requires_user_privilege(self):
        assert "requires user privilege" in attack("bof_attack", "cve_local", "local")
        success, _, _ = attack("bof_attack", "cve_local", "local", privilege=Privilege.USER,
                               draw=fixed(0.7))
        assert success

    def test_mode_mismatch_is_precondition_error(self):
        assert "'cve_local' is local, not remote" in attack("bof_attack", "cve_local", "remote")

    def test_unknown_vulnerability_no_draw(self):
        rng = fixed(0.99)
        success, _, _ = attack("bof_attack", "cve_nope", "remote", draw=rng)
        assert not success and rng.consumed == 0

    def test_bad_mode_rejected(self):
        assert "bad buffer overflow mode 'sideways'" in attack(
            "bof_attack", "cve_remote", "sideways", privilege=Privilege.ROOT)


class TestSqlInjection:
    WEB = TargetSpec("web", "linux", (80,), (Service(80, "nginx"),),
                     (Vulnerability("cve_sqli", "sqli"),))

    def test_success_grants_web_privilege(self):
        env = RunContext(Scenario("s", (self.WEB,)), fixed(TH.sqli))
        success, _ = env.execute("sqli_attack", (Atom("web"),))
        assert success and env.privilege["web"] is Privilege.WEB

    @pytest.mark.parametrize("ports,services", [
        ((22,), (Service(22, "ssh"),)),
        # Port 80 is open and a web service runs, but not on port 80.
        ((80, 8080), (Service(80, "ssh"), Service(8080, "nginx"))),
    ], ids=["no_web_service", "web_service_off_port_80"])
    def test_no_web_service_is_precondition_error(self, ports, services):
        spec = TargetSpec("t", "linux", ports, services, (Vulnerability("cve_sqli", "sqli"),))
        env = RunContext(Scenario("s", (spec,)), fixed(0.99))
        assert env.execute("sqli_attack", (Atom("t"),)) == (False, [])
        assert env.rng.consumed == 0 and env.steps == []
        assert env.trace[-1].endswith("not possible: no web service on port 80 of t")

    def test_no_sqli_vulnerability_no_draw(self):
        rng = fixed(0.99)
        success, _, _ = attack("sqli_attack", draw=rng)
        assert not success and rng.consumed == 0


class TestSniffer:
    PEER = TargetSpec("peer", "linux", (22,), (Service(22, "ssh"),),
                      credentials=(Credential("ssh", "hunter2"),), subnet="lan0")

    def test_success_yields_host_credentials(self):
        success, _, evidence = attack("sniffer_attack", "peer", others=(self.PEER,),
                                      draw=fixed(TH.sniffer))
        assert success
        assert [literal_to_str(l) for l in evidence] == \
            ['credential(ssh, "456")[source(target)]']

    def test_no_peer_is_not_possible(self):
        assert "target has no subnet peers" in attack("sniffer_attack", "peer")

    def test_peer_off_subnet_is_precondition_error(self):
        other = TargetSpec("far", "linux", subnet="lan1")
        assert "far is not on target's subnet" in attack("sniffer_attack", "far",
                                                         others=(self.PEER, other))

    def test_uncompromisable_peer_no_draw(self):
        bare = TargetSpec("bare", "linux", subnet="lan0")
        rng = fixed(0.99)
        success, _, _ = attack("sniffer_attack", "bare", others=(bare,), draw=rng)
        assert not success and rng.consumed == 0

    def test_target_is_not_its_own_peer(self):
        rng = fixed(0.99)
        assert "target is not its own subnet peer" in attack(
            "sniffer_attack", "target", others=(self.PEER,), draw=rng)
        assert rng.consumed == 0

    def test_self_sniff_is_logged_as_not_possible(self):
        t0 = TargetSpec("t0", "linux", (22,), (Service(22, "ssh"),),
                        credentials=(Credential("ssh", "x"),), subnet="lan0")
        env = RunContext(Scenario("s", (t0, TargetSpec("t1", "linux", subnet="lan0"))),
                         RunRng(0))
        assert env.execute("sniffer_attack", (Atom("t0"), Atom("t0"))) == (False, [])
        assert env.trace == ["[bdi_agent] sniffer attack via t0 not possible: "
                             "t0 is not its own subnet peer"]
        assert env.rng.consumed == 0 and env.steps == []
        assert env.privilege["t0"] is Privilege.NONE


class TestSocialEngineering:
    STAFFED = TargetSpec("t", "linux",
                         staff=(Staff("a@example.org", 0.15),
                                Staff("b@example.org", 0.30)))

    def test_uses_most_susceptible_staffer(self):
        success, _, evidence = attack("social_attack", spec=self.STAFFED, draw=fixed(0.70))
        assert success
        assert [literal_to_str(l) for l in evidence] == \
            ['phished("b@example.org")[source(t)]']

    def test_below_threshold_fails(self):
        success, _, _ = attack("social_attack", spec=self.STAFFED, draw=fixed(0.69))
        assert not success

    def test_no_staff_is_not_possible(self):
        assert "no staff known for target" in attack("social_attack")


class TestDispatch:
    SCENARIO = Scenario("s", (LAN_HOST,))
    TABLES = SCENARIO.tables["target"]

    def test_execute_unknown_target(self):
        env = RunContext(self.SCENARIO, RunRng(0))
        assert env.execute("probe_os", (Atom("ghost"),)) == (False, [])
        assert env.trace == ["[bdi_agent] unknown target: ghost"]
        assert env.steps == []

    def test_execute_unknown_action(self):
        env = RunContext(self.SCENARIO, RunRng(0))
        assert env.execute("teleport", (Atom("target"),)) == (False, [])
        assert env.trace == ["[bdi_agent] unknown action: teleport/1"]
        assert env.steps == []

    def test_resolve_routes_each_attack(self):
        success, _, evidence = resolve_attack(self.SCENARIO, self.TABLES, "password_attack",
                                              ("ssh",), Privilege.NONE, fixed(0.9))
        assert success
        assert [literal_to_str(l) for l in evidence] == \
            ['credential(ssh, "456")[source(target)]']

    def test_resolve_sniffer_needs_a_peer(self):
        assert "no subnet peers" in resolve_attack(self.SCENARIO, self.TABLES, "sniffer_attack",
                                                   ("peer",), Privilege.NONE, fixed(0.9))

    def test_thresholds_come_from_the_scenario(self):
        strict = Scenario("s", (LAN_HOST,), Thresholds(password=0.95))
        success, _, _ = resolve_attack(strict, strict.tables["target"], "password_attack",
                                       ("ssh",), Privilege.NONE, fixed(0.9))
        assert not success

    def test_one_draw_per_chance_based_attempt(self):
        rng = RunRng(7)
        resolve_attack(self.SCENARIO, self.TABLES, "password_attack", ("ssh",),
                       Privilege.NONE, rng)
        resolve_attack(self.SCENARIO, self.TABLES, "bof_attack",
                       ("cve_remote", "remote"), Privilege.NONE, rng)
        assert rng.consumed == 2


class TestRealizedRates:
    """Monte Carlo check of the per-attempt success probabilities implied
    by the thresholds under the u >= threshold convention."""

    N = 100_000

    def _rate(self, action, *args, privilege=Privilege.NONE):
        # One scenario for all attempts: building one builds its tables.
        scenario, rng = Scenario("s", (LAN_HOST,)), RunRng(42)
        tables = scenario.tables["target"]
        hits = sum(resolve_attack(scenario, tables, action, args, privilege, rng)[0]
                   for _ in range(self.N))
        return hits / self.N

    def test_password_rate_is_point_two(self):
        assert abs(self._rate("password_attack", "ssh") - 0.2) < 0.01

    def test_remote_bof_rate_is_point_five(self):
        assert abs(self._rate("bof_attack", "cve_remote", "remote") - 0.5) < 0.01

    def test_local_bof_rate_is_point_seven(self):
        rate = self._rate("bof_attack", "cve_local", "local", privilege=Privilege.USER)
        assert abs(rate - 0.7) < 0.01


# --- the verdict table against the checks ------------------------------------

def _checked(scenario, spec, action, args, privilege, rng):
    """An attempt adjudicated by the row's check itself, as resolve_attack
    answers: the reason text, or (success, draw, evidence)."""
    try:
        chance = ACTIONS[action].check(scenario, spec, args, privilege)
    except ActionError as e:
        return str(e)
    source = scenario.tables[spec.name].source
    failed = (Literal(Atom(f"{action}_failed"), source),)
    if chance is None:
        return False, None, failed
    threshold, evidence = chance
    success, u = rng.chance(threshold)
    return success, u, tuple(Literal(t, source) for t in evidence) if success else failed


@settings(max_examples=10, deadline=None)
@given(scenarios(), st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=4))
def test_the_verdict_table_answers_as_the_checks_do(scenario, draws):
    # Every attack row, with arguments from the scenario's own names and one
    # unknown name, at every privilege: the first attempt of a key fills the
    # table and the second reads it, and both answer as the check does.
    names = sorted({"unknown"}.union(
        *({t.name} | set(t.service_names())
          | {v.id for v in t.vulnerabilities} | {v.kind for v in t.vulnerabilities}
          for t in scenario.targets)))
    # The thresholds themselves, so that draws land on the u >= threshold edge
    draws = draws + [getattr(scenario.thresholds, f) for f in vars(scenario.thresholds)]
    attempts = 0
    for spec in scenario.targets:
        tables = scenario.tables[spec.name]
        for action, row in ACTIONS.items():
            if row.kind != ATTACK:
                continue
            for args in itertools.product(names, repeat=row.arity - 1):
                for privilege in Privilege:
                    u = draws[attempts % len(draws)]
                    attempts += 1
                    want_rng = RunRng(0, (u,))
                    want = _checked(scenario, spec, action, args, privilege, want_rng)
                    for _ in ("miss", "hit"):
                        rng = RunRng(0, (u,))
                        got = resolve_attack(scenario, tables, action, args, privilege, rng)
                        assert got == want, (spec.name, action, args, privilege)
                        assert rng.consumed == want_rng.consumed
        # One entry per key attempted on this target
        assert len(tables.attacks) == sum(
            len(names) ** (row.arity - 1) * len(Privilege)
            for row in ACTIONS.values() if row.kind == ATTACK)
