"""Seeded inputs for the benchmark: multi-target scenarios and their agents.

`campaign(seed, n_targets)` returns the scenario as a plain dict (the
record the checks read), its YAML text and the agent's plan text. The
program under test sees only the two texts.

Make-up. Targets take the roles below in turn and sit round-robin on
three subnets (one when there are fewer than six targets). Each role gives
its target one way in, so every attack family draws in every run:

    remote  a remote buffer-overflow vulnerability          -> bof_attack
    web     nginx/apache on port 80 and a sqli vulnerability -> sqli_attack
    login   a login service with a known credential         -> password_attack
    pivot   nothing of its own; a compromisable subnet peer -> sniffer_attack
    staff   nothing of its own but staff                    -> social_attack

Remote and login targets also get a local vulnerability, for escalation
after a user foothold. The agent has, per target, one plan per attack it
could try: the real ones plus decoys that are impossible against that
target (unknown vulnerability, missing service, a peer on another subnet),
so failure recovery runs on every target. Every `!own` and `!escalate`
goal ends in a skip plan, so every run ends with `campaign(done)`.

No plan attacks a target through itself (`sniffer_attack(T, T)`), and no
context literal carries annotations: the program mishandles both.
"""

from __future__ import annotations

import itertools
import random

import yaml

ROLES = ("remote", "web", "login", "pivot", "staff")
LOGIN_PORTS = {"ssh": 22, "ftp": 21, "telnet": 23, "mysql": 3306}
OTHER_SERVICES = {"smtp": 25, "dns": 53, "rdp": 3389, "smb": 445}
OSES = ("linux", "windows", "freebsd")
# Written out in full so the checks read them from the record, not the program.
THRESHOLDS = {"password": 0.8, "bof_remote": 0.5, "bof_local": 0.3,
              "sqli": 0.4, "sniffer": 0.6}


def _compromisable(t: dict) -> bool:
    # The program's rule for a host a sniffer can pivot through: a remote or
    # sqli vulnerability, or any credential.
    return (any(v["kind"] in ("remote", "sqli") for v in t["vulnerabilities"])
            or bool(t["credentials"]))


def _target(rng: random.Random, name: str, role: str, subnet: str, ids) -> dict:
    ports, services, vulns, creds, staff = [], [], [], [], []

    def service(svc, port):
        if port not in ports:
            ports.append(port)
            services.append({"port": port, "name": svc})

    def vuln(kind):
        vulns.append({"id": f"cve_{next(ids)}", "kind": kind})

    def person(i, susceptibility):
        staff.append({"email": f"{name}.staff{i}@corp{subnet[-1]}.example",
                      "susceptibility": susceptibility})

    svc = rng.choice(sorted(OTHER_SERVICES))
    service(svc, OTHER_SERVICES[svc])
    while len(ports) < 4:
        port = rng.randrange(8000, 9000)
        if port not in ports:
            ports.append(port)
    if role == "remote":
        vuln("remote")
    elif role == "web":
        service(rng.choice(("nginx", "apache")), 80)
        vuln("sqli")
    elif role == "login":
        login = rng.choice(sorted(LOGIN_PORTS))
        service(login, LOGIN_PORTS[login])
        creds.append({"service": login, "secret": f"pw{rng.randrange(10**6):06d}"})
    elif role == "staff":
        # The most susceptible person sets the odds; keep them fixed.
        person(0, 0.5)
        person(1, rng.choice((0.2, 0.3, 0.4)))
    if role in ("remote", "login"):
        vuln("local")
    return {"name": name, "os": rng.choice(OSES), "ports": ports,
            "services": services, "vulnerabilities": vulns,
            "credentials": creds, "subnet": subnet, "staff": staff}


def _scenario(seed: int, n_targets: int) -> dict:
    rng = random.Random(seed)
    n_subnets = 3 if n_targets >= 6 else 1
    # Roles and subnets are the same for every seed, so that every seed
    # costs the same; the seed picks names, services, ports and staff. Each
    # subnet gets one of the first three roles: a host its pivot can sniff.
    roles = [ROLES[i % len(ROLES)] for i in range(n_targets)]
    ids = (f"{seed % 997:03d}_{n}" for n in itertools.count(1000, 7))
    targets = [_target(rng, f"t{i}", roles[i], f"lan{i % n_subnets}", ids)
               for i in range(n_targets)]
    return {
        "name": f"campaign_{n_targets}_{seed}",
        "seed": seed,
        "max_cycles": 5000,
        "thresholds": dict(THRESHOLDS),
        "targets": targets,
    }


def _agent(scenario: dict, rng: random.Random) -> str:
    targets = scenario["targets"]
    subnets = sorted({t["subnet"] for t in targets})
    out = ["// Generated campaign agent.", "", "!campaign(done).", ""]
    survey = "; ".join(f"!survey({s})" for s in subnets)
    work = "; ".join(f"!own({t['name']}); !escalate({t['name']})" for t in targets)
    out += ["@mission", f"+!campaign(done) : true <- {survey}; {work}; +campaign(done).", ""]
    for s in subnets:
        probes = "; ".join(f"{p}({t['name']})" for t in targets if t["subnet"] == s
                           for p in ("probe_os", "probe_ports", "probe_services",
                                     "probe_vulnerabilities", "probe_emails"))
        out += [f"@survey_{s}", f"+!survey({s}) : true <- {probes}.", ""]

    all_remote = [v["id"] for t in targets for v in t["vulnerabilities"]
                  if v["kind"] == "remote"]
    for t in targets:
        name = t["name"]
        plans = []
        own = [v["id"] for v in t["vulnerabilities"] if v["kind"] == "remote"]
        decoys = [v for v in all_remote if v not in own]
        for vid in own + rng.sample(decoys, min(1, len(decoys))):
            plans.append(("true" if vid not in own else f"vulnerability({vid})",
                          f"bof_attack({name}, {vid}, remote)"))
        plans.append(("port(80)", f"sqli_attack({name})"))
        mine = [s["name"] for s in t["services"] if s["name"] in LOGIN_PORTS]
        others = [s for s in sorted(LOGIN_PORTS) if s not in mine]
        plans += [(f"service({svc})", f"password_attack({name}, {svc})") for svc in mine]
        plans.append(("true", f"password_attack({name}, {rng.choice(others)})"))
        peers = [p for p in targets if p["name"] != name]
        same = [p for p in peers if p["subnet"] == t["subnet"]]
        # One route through a compromisable peer (draws), one through a peer
        # that is not (no draw), one through another subnet (impossible).
        routes = ([p["name"] for p in same if _compromisable(p)][:1]
                  + [p["name"] for p in same if not _compromisable(p)][:1])
        if t["staff"]:
            # A staff target is reached by phishing, so social_attack draws.
            routes = []
        routes += [p["name"] for p in peers if p["subnet"] != t["subnet"]][:1]
        for peer in routes:
            plans.append(("true", f"sniffer_attack({name}, {peer})"))
        plans.append(("email(E)", f"social_attack({name})"))
        for i, (context, action) in enumerate(plans):
            out.append(f"@own_{name}_{i}")
            out.append(f"+!own({name}) : {context} <- {action}; +foothold({name}).")
        out.append(f"@own_{name}_skip")
        out.append(f'+!own({name}) : true <- .print("no foothold on {name}").')
        for v in t["vulnerabilities"]:
            if v["kind"] == "local":
                out.append(f"@escalate_{name}_{v['id']}")
                out.append(f"+!escalate({name}) : foothold({name}) "
                           f"<- bof_attack({name}, {v['id']}, local); +rooted({name}).")
        out.append(f"@escalate_{name}_skip")
        out.append(f"+!escalate({name}) : true.")
        out.append("")
    return "\n".join(out)


def campaign(seed: int, n_targets: int = 6) -> tuple[dict, str, str]:
    """(scenario record, scenario YAML, agent program) for one seed."""
    scenario = _scenario(seed, n_targets)
    agent = _agent(scenario, random.Random(seed ^ 0x5EED))
    return scenario, yaml.safe_dump(scenario, sort_keys=False), agent
