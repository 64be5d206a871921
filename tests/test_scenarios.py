"""Generated multi-target scenarios against the scenario loader.

The strategy follows the make-up of the benchmark's generated campaigns:
targets take the roles remote, web, login, pivot and staff in turn and sit
round-robin on three subnets (one when there are fewer than six). Beyond
those rules it draws what the schema allows: any seed and cycle cap, partial
thresholds, integer secrets, and documents that leave out every field equal
to its default. Two properties hold:

- a scenario written out as YAML loads back equal;
- any single corruption of that YAML (a wrong type, a value out of range,
  an item repeating an earlier item's first field, an unknown key, a missing
  required field) is refused with a ConfigError at the corrupted field.

The loader's YAML reading is checked against PyYAML's pure-Python
`yaml.SafeLoader` on those documents and on one-character changes to them.
"""

import copy

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from bdi_pentest.targets import (
    ConfigError,
    Credential,
    Scenario,
    Service,
    Staff,
    TargetSpec,
    Thresholds,
    Vulnerability,
    _read_yaml,
    load_scenario,
)
from bdi_pentest.terms import _Record

ROLES = ("remote", "web", "login", "pivot", "staff")
LOGIN_PORTS = {"ssh": 22, "ftp": 21, "telnet": 23, "mysql": 3306}
OTHER_SERVICES = {"smtp": 25, "dns": 53, "rdp": 3389, "smb": 445}

_names = st.text(alphabet="abcxyz019_.-", min_size=1, max_size=8)
_probabilities = st.one_of(st.floats(0, 1), st.sampled_from([0, 1]))
_secrets = st.one_of(st.integers(0, 10 ** 12).map(str),
                     st.integers(0, 10 ** 6).map("pw{:06d}".format))


@st.composite
def _target(draw, name, role, subnet, oses=("linux", "windows", "freebsd")):
    services = []
    other = draw(st.sampled_from(sorted(OTHER_SERVICES)))
    services.append(Service(OTHER_SERVICES[other], other))
    high = draw(st.lists(st.integers(8000, 8999), min_size=1, max_size=3, unique=True))
    vulns, creds, staff = [], [], []
    if role == "remote":
        vulns.append(Vulnerability(f"cve_{name}_r", "remote"))
    elif role == "web":
        services.append(Service(80, draw(st.sampled_from(["nginx", "apache"]))))
        vulns.append(Vulnerability(f"cve_{name}_s", "sqli"))
    elif role == "login":
        login = draw(st.sampled_from(sorted(LOGIN_PORTS)))
        services.append(Service(LOGIN_PORTS[login], login))
        creds.append(Credential(login, draw(_secrets)))
    elif role == "staff":
        for i in range(draw(st.integers(1, 3))):
            staff.append(Staff(f"{name}.staff{i}@corp.example", draw(_probabilities)))
    if role in ("remote", "login"):
        vulns.append(Vulnerability(f"cve_{name}_l", "local"))
    ports = draw(st.permutations([s.port for s in services] + high))
    return TargetSpec(name, draw(st.sampled_from(oses)), tuple(ports), tuple(services),
                      tuple(vulns), tuple(creds), subnet, tuple(staff))


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 7))
    names = draw(st.lists(_names, min_size=n, max_size=n, unique=True))
    subnets = ("lan0", "lan1", "lan2") if n >= 6 else (draw(st.sampled_from(["lan", "lan0"])),)
    targets = tuple(draw(_target(names[i], ROLES[i % len(ROLES)], subnets[i % len(subnets)]))
                    for i in range(n))
    thresholds = draw(st.fixed_dictionaries(
        {}, optional={name: _probabilities for name in Thresholds._fields}))
    return Scenario(draw(st.one_of(st.just("scenario"), _names)), targets,
                    Thresholds(**thresholds), draw(st.integers(0, 2 ** 64 - 1)),
                    draw(st.integers(1, 10 ** 9)))


def _raw(obj, lean: bool):
    """The YAML value of a scenario record: a mapping of its fields, lists
    for tuples, a digits-only secret as an integer. `lean` leaves out every
    field equal to its constructor's default, and the name "scenario"."""
    if isinstance(obj, tuple):
        return [_raw(x, lean) for x in obj]
    if not isinstance(obj, _Record):
        return obj
    defaults = type(obj).__init__.__defaults__ or ()
    defaults = dict(zip(obj._fields[len(obj._fields) - len(defaults):], defaults))
    out = {}
    for name in obj._fields:
        value = getattr(obj, name)
        if not (lean and name in defaults and value == defaults[name]):
            out[name] = _raw(value, lean)
    if isinstance(obj, Credential) and obj.secret.isdigit():
        out["secret"] = int(obj.secret)
    if isinstance(obj, Scenario) and lean and obj.name == "scenario":
        del out["name"]
    return out


def _yaml(doc) -> str:
    return yaml.dump(doc, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper), sort_keys=False)


documents = st.tuples(scenarios(), st.booleans()).map(lambda t: (t[0], _raw(*t)))


@settings(max_examples=50, deadline=None)
@given(documents)
def test_a_written_scenario_loads_back_equal(case):
    scenario, doc = case
    assert load_scenario(_yaml(doc)) == scenario


# --- Corruptions -----------------------------------------------------------

# The schema as the README states it: what each field holds, which fields
# each mapping requires, and the first field, unique within its list.
_FIELD_KINDS = {
    "name": "text", "os": "text", "subnet": "text", "email": "text", "service": "text",
    "id": "text", "kind": "kind", "secret": "secret", "seed": "seed",
    "max_cycles": "max_cycles", "port": "port", "susceptibility": "probability",
    "thresholds": "mapping",
    **dict.fromkeys(("targets", "ports", "services", "vulnerabilities", "credentials",
                     "staff"), "list"),
}
_WRONG_TYPE = {
    "text": [7, 1.5, None, True, ["a"], {"a": 1}],
    "secret": [None, True, 1.5, ["a"]],
    "kind": [7, None, ["remote"]],
    "seed": ["7", 1.5, None, True],
    "max_cycles": ["7", 1.5, None, True],
    "port": ["22", 22.0, None, True],
    "probability": ["0.5", None, True, [0.5]],
    "list": ["x", 7, {"a": 1}],
    "mapping": ["x", 7, ["a"]],
}
_OUT_OF_RANGE = {
    "seed": [-1, 2 ** 64],
    "max_cycles": [0, -1],
    "port": [0, 65536, -22],
    "probability": [-0.01, 1.01, 2],
    "kind": ["warp", "Remote"],
}
_REQUIRED = {None: ("targets",), "targets": ("name", "os"), "services": ("port", "name"),
             "vulnerabilities": ("id", "kind"), "credentials": ("service", "secret"),
             "staff": ("email",)}
_FIRST_FIELD = {"targets": "name", "services": "port", "vulnerabilities": "id",
                "credentials": "service", "staff": "email", "ports": None}


def _locations(node, path=()):
    """(path, value) for every value below `node`, a path being its keys
    and list indices from the document's root."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _locations(value, path + (key,))


def _fmt(path) -> str:
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


def _kind(path) -> str:
    if isinstance(path[-1], int):
        return "port" if path[-2] == "ports" else "mapping"
    return "probability" if path[:-1] == ("thresholds",) else _FIELD_KINDS[path[-1]]


def _corruptions(doc):
    """(path of the corrupted field, the change) for every single corruption
    of `doc`; `_corrupt` applies one."""
    def put(value):
        return lambda node, key: node.__setitem__(key, value)

    found = []
    for path, value in _locations(doc):
        kind = _kind(path)
        bad = _WRONG_TYPE[kind] + _OUT_OF_RANGE.get(kind, [])
        if path[-1] == "port":
            bad = bad + [1]  # a port no generated target lists
        found += [(path, put(b)) for b in bad]
        if isinstance(value, list) and len(value) > 1:
            first = _FIRST_FIELD[path[-1]]
            for j in range(1, len(value)):
                if first is None:
                    found.append((path + (j,), put(value[0])))
                else:
                    found.append((path + (j, first), put(value[0][first])))
    mappings = [((), doc)] + [(p, v) for p, v in _locations(doc) if isinstance(v, dict)]
    for path, mapping in mappings:
        found.append((path + ("bogus",), put(1)))
        within = None if not path else path[-2] if isinstance(path[-1], int) else path[-1]
        found += [(path + (key,), dict.pop) for key in _REQUIRED.get(within, ())
                  if key in mapping]
    return found


def _corrupt(doc, path, change):
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    change(node, path[-1])
    return out


def _refused_at(doc) -> str:
    with pytest.raises(ConfigError) as e:
        load_scenario(_yaml(doc))
    return e.value.path.removeprefix("<root>.")


@settings(max_examples=50, deadline=None)
@given(documents, st.data())
def test_a_single_corruption_is_refused_at_its_field(case, data):
    doc = case[1]
    path, change = data.draw(st.sampled_from(_corruptions(doc)))
    assert _refused_at(_corrupt(doc, path, change)) == _fmt(path)


def test_corruptions_cover_every_kind():
    # Every field kind of a small two-target document is corrupted; one
    # corruption in seven is checked here, the rest by the property above.
    scenario = Scenario("s", (
        TargetSpec("a", "linux", (22, 80), (Service(22, "ssh"), Service(80, "nginx")),
                   (Vulnerability("v1", "remote"), Vulnerability("v2", "local")),
                   (Credential("ssh", "12"), Credential("ftp", "x")), "lan0",
                   (Staff("a@b"), Staff("c@b", 0.5))),
        TargetSpec("b", "windows")), Thresholds(password=0.5))
    doc = _raw(scenario, lean=False)
    assert load_scenario(_yaml(doc)) == scenario
    corruptions = _corruptions(doc)
    assert {_kind(p) for p, _ in corruptions if not p[-1] == "bogus"} == \
        set(_WRONG_TYPE)
    for path, change in corruptions[::7]:
        assert _refused_at(_corrupt(doc, path, change)) == _fmt(path)


# --- libyaml against pure-Python PyYAML ------------------------------------

# YAML's indicator characters, a tab, a lone surrogate, and "" to delete.
_EDITS = list("-?:,[]{}#&*!|>'\"%@`") + ["\t", "\ud800", ""]


@settings(max_examples=150, deadline=None)
@given(documents, st.data())
def test_the_loader_reads_yaml_as_pure_python_pyyaml_does(case, data):
    # A document unchanged, or with one character inserted, replaced or
    # deleted: whatever the reference loads, the loader loads equal or, where
    # libyaml's grammar is stricter, the value is no scenario; and
    # load_scenario refuses anything else with a ConfigError.
    text = _yaml(case[1])
    i, drop = data.draw(st.integers(0, len(text))), data.draw(st.integers(0, 1))
    text = text[:i] + data.draw(st.sampled_from(_EDITS)) + text[i + drop:]
    try:
        reference = yaml.load(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError:
        pass
    else:
        try:
            loaded = _read_yaml(text.encode(errors="surrogatepass"))
        except yaml.YAMLError:
            # libyaml refuses some flow sequence items that PyYAML reads as
            # a one-pair mapping with a null value, such as those of `[?]`
            # and `[x:, b]`; no scenario field holds such a mapping.
            with pytest.raises(ConfigError):
                load_scenario(_yaml(reference))
        else:
            assert repr(loaded) == repr(reference)
    try:
        load_scenario(text)
    except ConfigError:
        pass
