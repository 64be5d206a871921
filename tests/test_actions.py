import pytest

from bdi_pentest.actions import (
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
from bdi_pentest.terms import Atom, literal_to_str

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
    """resolve_attack against `spec` in a scenario of it and `others`."""
    scenario = Scenario("s", (spec, *others))
    return resolve_attack(scenario, spec, action, args, privilege,
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
        assert [s.outcome for s in env.steps] == ["success"] * 3 + ["failure"]
        assert levels == [Privilege.USER, Privilege.ROOT, Privilege.ROOT, Privilege.ROOT]


class TestPasswordAttack:
    def test_threshold_boundary_draw_succeeds(self):
        out = attack("password_attack", "ssh", draw=fixed(TH.password))
        assert out.success

    def test_below_threshold_fails_with_evidence(self):
        out = attack("password_attack", "ssh", draw=fixed(0.13183533644420975))
        assert not out.success
        assert [literal_to_str(l) for l in out.evidence] == \
            ["password_attack_failed[source(target)]"]

    def test_success_reveals_credential(self):
        out = attack("password_attack", "ssh", draw=fixed(0.95))
        assert [literal_to_str(l) for l in out.evidence] == \
            ['credential(ssh, "456")[source(target)]']

    def test_unloggable_service_is_precondition_error(self):
        with pytest.raises(ActionError, match="no remotely loggable service 'nginx'"):
            attack("password_attack", "nginx")
        with pytest.raises(ActionError, match="no remotely loggable service 'ftp'"):
            attack("password_attack", "ftp")

    def test_no_credential_short_circuits_without_draw(self):
        spec = TargetSpec("t", "linux", (22,), (Service(22, "ssh"),))
        rng = fixed(0.99)
        out = attack("password_attack", "ssh", spec=spec, draw=rng)
        assert not out.success and out.draw is None
        assert [literal_to_str(l) for l in out.evidence] == ["password_attack_failed[source(t)]"]
        assert rng.consumed == 0


class TestBufferOverflow:
    def test_remote_at_threshold_succeeds(self):
        out = attack("bof_attack", "cve_remote", "remote", draw=fixed(TH.bof_remote))
        assert out.success
        assert [literal_to_str(l) for l in out.evidence] == \
            ['attacked("cve_remote")[source(target)]']

    def test_remote_below_threshold_fails(self):
        out = attack("bof_attack", "cve_remote", "remote", draw=fixed(0.49))
        assert not out.success
        assert [literal_to_str(l) for l in out.evidence] == \
            ["bof_attack_failed[source(target)]"]

    def test_local_requires_user_privilege(self):
        with pytest.raises(ActionError, match="requires user privilege"):
            attack("bof_attack", "cve_local", "local")
        out = attack("bof_attack", "cve_local", "local", privilege=Privilege.USER,
                     draw=fixed(0.7))
        assert out.success

    def test_mode_mismatch_is_precondition_error(self):
        with pytest.raises(ActionError, match="'cve_local' is local, not remote"):
            attack("bof_attack", "cve_local", "remote")

    def test_unknown_vulnerability_no_draw(self):
        rng = fixed(0.99)
        out = attack("bof_attack", "cve_nope", "remote", draw=rng)
        assert not out.success and rng.consumed == 0

    def test_bad_mode_rejected(self):
        with pytest.raises(ActionError, match="bad buffer overflow mode 'sideways'"):
            attack("bof_attack", "cve_remote", "sideways", privilege=Privilege.ROOT)


class TestSqlInjection:
    WEB = TargetSpec("web", "linux", (80,), (Service(80, "nginx"),),
                     (Vulnerability("cve_sqli", "sqli"),))

    def test_success_grants_web_privilege(self):
        env = RunContext(Scenario("s", (self.WEB,)), fixed(TH.sqli))
        success, _ = env.execute("sqli_attack", (Atom("web"),))
        assert success and env.privilege["web"] is Privilege.WEB

    def test_no_web_service_is_precondition_error(self):
        spec = TargetSpec("t", "linux", (22,), (Service(22, "ssh"),))
        with pytest.raises(ActionError, match="no web service on port 80 of t"):
            attack("sqli_attack", spec=spec)

    def test_no_sqli_vulnerability_no_draw(self):
        rng = fixed(0.99)
        out = attack("sqli_attack", draw=rng)
        assert not out.success and rng.consumed == 0


class TestSniffer:
    PEER = TargetSpec("peer", "linux", (22,), (Service(22, "ssh"),),
                      credentials=(Credential("ssh", "hunter2"),), subnet="lan0")

    def test_success_yields_host_credentials(self):
        out = attack("sniffer_attack", "peer", others=(self.PEER,), draw=fixed(TH.sniffer))
        assert out.success
        assert [literal_to_str(l) for l in out.evidence] == \
            ['credential(ssh, "456")[source(target)]']

    def test_no_peer_raises(self):
        with pytest.raises(ActionError, match="target has no subnet peers"):
            attack("sniffer_attack", "peer")

    def test_peer_off_subnet_is_precondition_error(self):
        other = TargetSpec("far", "linux", subnet="lan1")
        with pytest.raises(ActionError, match="far is not on target's subnet"):
            attack("sniffer_attack", "far", others=(self.PEER, other))

    def test_uncompromisable_peer_no_draw(self):
        bare = TargetSpec("bare", "linux", subnet="lan0")
        rng = fixed(0.99)
        out = attack("sniffer_attack", "bare", others=(bare,), draw=rng)
        assert not out.success and rng.consumed == 0

    def test_target_is_not_its_own_peer(self):
        rng = fixed(0.99)
        with pytest.raises(ActionError, match="target is not its own subnet peer"):
            attack("sniffer_attack", "target", others=(self.PEER,), draw=rng)
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
        out = attack("social_attack", spec=self.STAFFED, draw=fixed(0.70))
        assert out.success
        assert [literal_to_str(l) for l in out.evidence] == \
            ['phished("b@example.org")[source(t)]']

    def test_below_threshold_fails(self):
        out = attack("social_attack", spec=self.STAFFED, draw=fixed(0.69))
        assert not out.success

    def test_no_staff_raises(self):
        with pytest.raises(ActionError, match="no staff known for target"):
            attack("social_attack")


class TestDispatch:
    SCENARIO = Scenario("s", (LAN_HOST,))

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
        out = resolve_attack(self.SCENARIO, LAN_HOST, "password_attack", ("ssh",),
                             Privilege.NONE, fixed(0.9))
        assert out.success
        assert [literal_to_str(l) for l in out.evidence] == \
            ['credential(ssh, "456")[source(target)]']

    def test_resolve_sniffer_needs_a_peer(self):
        with pytest.raises(ActionError, match="no subnet peers"):
            resolve_attack(self.SCENARIO, LAN_HOST, "sniffer_attack", ("peer",),
                           Privilege.NONE, fixed(0.9))

    def test_thresholds_come_from_the_scenario(self):
        strict = Scenario("s", (LAN_HOST,), Thresholds(password=0.95))
        assert not resolve_attack(strict, LAN_HOST, "password_attack", ("ssh",),
                                  Privilege.NONE, fixed(0.9)).success

    def test_one_draw_per_chance_based_attempt(self):
        rng = RunRng(7)
        resolve_attack(self.SCENARIO, LAN_HOST, "password_attack", ("ssh",),
                       Privilege.NONE, rng)
        resolve_attack(self.SCENARIO, LAN_HOST, "bof_attack",
                       ("cve_remote", "remote"), Privilege.NONE, rng)
        assert rng.consumed == 2


class TestRealizedRates:
    """Monte Carlo check of the per-attempt success probabilities implied
    by the thresholds under the u >= threshold convention."""

    N = 100_000

    def _rate(self, action, *args, privilege=Privilege.NONE):
        # One scenario for all attempts: building one builds its tables.
        scenario, rng = Scenario("s", (LAN_HOST,)), RunRng(42)
        hits = sum(resolve_attack(scenario, LAN_HOST, action, args, privilege, rng).success
                   for _ in range(self.N))
        return hits / self.N

    def test_password_rate_is_point_two(self):
        assert abs(self._rate("password_attack", "ssh") - 0.2) < 0.01

    def test_remote_bof_rate_is_point_five(self):
        assert abs(self._rate("bof_attack", "cve_remote", "remote") - 0.5) < 0.01

    def test_local_bof_rate_is_point_seven(self):
        rate = self._rate("bof_attack", "cve_local", "local", privilege=Privilege.USER)
        assert abs(rate - 0.7) < 0.01
