"""The monitor side's public surface, and who uses it — a census that
gates.

ROADMAP's deletion budget says "anything with no test, no doc and no
caller goes"; the simplicity rules behind it say an action has one door,
an option only tests set is a constant, and a public name only its own
tests call is dead.  This file counts that surface for every
monitor-side package (:data:`PACKAGES`) and fails when it grows a name
nobody but the tests uses.

*The surface.*  Every public module-level function and class, every
public method and property of a public class, and every *option*: a
parameter with a default of one of those, or a dataclass field with a
default that ``__init__`` takes.  Names starting with ``_`` and dunders
are private.

*Where a name is used.*  The Python corpora — ``src`` (outside the
package ``__init__.py`` lazy tables, which re-export and do not use),
``examples``, ``benchmarks`` and ``tests`` — are read as syntax trees: a
function, class or method is used where an identifier, an attribute, an
imported name or a whitespace-free string constant names it, but not
by its own module's ``__all__``.  An option is used where a call to its
callee fills it — ``Foo(x=)`` fills ``Foo``'s ``x``, ``obj.foo(x=)``
every ``foo`` method's, a positional argument the option at its place,
a ``*``/``**`` call every option of that callee — and by bare name
where an assignment sets it as an attribute, a string that is no
dict-display key names it (a request parameter, a config key), or a
keyword goes to a callee the syntax cannot name (``super().__init__``,
``cls(...)``, a variable, ``dataclasses.replace``).  The dashboard's
``static`` files and the ``docs`` (README, DESIGN, EXPERIMENTS) are
read as text, word by word; a family written with a glob
(``RTMClient.trace_*``) documents every name it matches.  Matching is
by name, so a name shared with an unrelated one counts as used and the
census can miss dead surface.  The one way it can invent some is a call
that spells another name for the callee — a subclass that inherits its
base's ``__init__``, an alias — so read a finding's callers before
deleting it (no monitor-side class inherits an ``__init__`` with
options today).

*The gate.*  No surface name is used by ``tests`` alone, or by nothing,
unless :data:`ALLOWED` lists it with a reason, and every entry there is
still needed.  Each package's count of names and options stays within
:data:`BUDGET`, so the surface can only shrink.

*The command line.*  The same rule for flags: every ``--flag`` of a
``repro fleet`` or ``repro historian`` leaf is passed by a command line
someone runs — a CI step, a fenced command in README or EXPERIMENTS, an
example or a benchmark — and every flag of the fleet worker's parser by
the code that builds a worker's command line (:data:`WORKER_FORWARDERS`).
A flag nobody passes is a constant, or :data:`CLI_ALLOWED` says why it
stays.

``PYTHONPATH=src python -m tests.counts`` prints the per-package
counts (``public_names``, ``options``, ``test_only``) and the flag
census (``flags@campaign_cli``, ``unpassed_flags@campaign_cli``).
"""

import argparse
import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: The monitor side: everything above ``akita``/``gpu``/``workloads``
#: but the paper's user study.
PACKAGES = ("core", "trace", "profile", "metrics", "faults", "checkpoint",
            "fleet", "historian", "shard")

DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
CORPORA = ("src", "examples", "benchmarks", "static", "docs", "tests")

_NEVER_DUE = "test seam: an interval that never elapses makes the " \
    "batching deterministic"
_ROUTE_PARAMETER = "the client's spelling of a parameter its route " \
    "documents (count=, for=)"

#: Names nothing but the tests uses, kept on purpose: ``key`` -> reason.
ALLOWED = {
    "core.monitor:Monitor.update_progress_bar":
        "Go API UpdateProgressBar (paper §IV-B: the 12 functions)",
    "core.server:route_rows": "the composed route table that README's "
        "tables (tests/test_docs.py) and the route walk are checked "
        "against",
    "core.client:RTMClient.metrics_stream(max_events=)": _ROUTE_PARAMETER,
    "core.client:RTMClient.historian_stream(max_events=)":
        _ROUTE_PARAMETER,
    "core.client:RTMClient.historian_add_rule(for_seconds=)":
        _ROUTE_PARAMETER,
    "trace.store:SQLiteStore(flush_interval=)": _NEVER_DUE,
    "historian.store:Historian(flush_interval=)": _NEVER_DUE,
    "fleet.journal:CampaignJournal(fsync_batch=)":
        "test seam: a small batch makes the fsync cadence countable",
    "fleet.protocol:split_batches(max_bytes=)":
        "test seam: a small bound splits without megabyte frames",
    "core.alerts:AlertManager.evaluate_all(now_wall=)":
        "test seam: a given wall clock walks a rule's hold window, and "
        "the log and counters behind it, without sleeping",
}

#: Per package: (public names, options) the census may count at most.
#: Before the walk that set this gate the monitor side counted 547
#: names and 370 options, 30 of them used by tests alone.
BUDGET = {
    "core": (213, 94),
    "trace": (52, 34),
    "profile": (36, 16),
    "metrics": (43, 25),
    "faults": (28, 34),
    "checkpoint": (9, 6),
    "fleet": (67, 53),
    "historian": (27, 27),
    "shard": (36, 6),
}


# ----------------------------------------------------------------------
# The surface
# ----------------------------------------------------------------------
def _is_public(name):
    return not name.startswith("_")


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _settable(field_value):
    """A dataclass field's default is settable unless it is
    ``field(..., init=False)`` — state the object keeps, not an
    option."""
    return not (isinstance(field_value, ast.Call)
                and any(keyword.arg == "init"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is False
                        for keyword in field_value.keywords))


def _options(function, method=False):
    """``(option, position)`` for each parameter of *function* that has
    a default: *position* is where a call fills it positionally (the
    ``self``/``cls`` of a *method* not counted), ``None`` for a
    keyword-only one."""
    args = function.args
    positional = args.posonlyargs + args.args
    if method and not any(getattr(decorator, "id", None) == "staticmethod"
                          for decorator in function.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    return ([(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
            + [(arg.arg, None) for arg, default
               in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None])


def _surface_of(source, module):
    """``(key, kind, name, callee, position)`` for every public name and
    option *source* defines; *module* is its dotted name below
    ``repro``.  An option's *callee* is the name a call that fills it
    goes by (the class, for ``__init__`` and dataclass fields) and
    *position* where such a call fills it positionally; a name has
    neither."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(source).body:
        if isinstance(node, functions) and _is_public(node.name):
            yield f"{module}:{node.name}", "name", node.name, None, None
            for option, position in _options(node):
                yield (f"{module}:{node.name}({option}=)", "option",
                       option, node.name, position)
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            owner = f"{module}:{node.name}"
            yield owner, "name", node.name, None, None
            fields = 0
            for item in node.body:
                if isinstance(item, functions):
                    if item.name == "__init__":
                        for option, position in _options(item, True):
                            yield (f"{owner}({option}=)", "option",
                                   option, node.name, position)
                    elif _is_public(item.name):
                        yield (f"{owner}.{item.name}", "name", item.name,
                               None, None)
                        for option, position in _options(item, True):
                            yield (f"{owner}.{item.name}({option}=)",
                                   "option", option, item.name, position)
                elif isinstance(item, ast.AnnAssign) \
                        and _is_dataclass(node) \
                        and isinstance(item.target, ast.Name) \
                        and (item.value is None or _settable(item.value)):
                    if item.value is not None \
                            and _is_public(item.target.id):
                        yield (f"{owner}({item.target.id}=)", "option",
                               item.target.id, node.name, fields)
                    fields += 1


def surface(packages=PACKAGES):
    """``{package: [(key, kind, name, callee, position), ...]}`` in file
    order."""
    found = {}
    for package in packages:
        rows = found.setdefault(package, [])
        for path in sorted((SRC / package).rglob("*.py")):
            module = ".".join(path.relative_to(SRC).with_suffix("").parts)
            rows += _surface_of(path.read_text(), module)
    return found


# ----------------------------------------------------------------------
# Where a name is used
# ----------------------------------------------------------------------
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_FAMILY = re.compile(r"([A-Za-z_][A-Za-z0-9_]*_)\*")

#: Callees that fill the options of their first argument, whose type
#: the syntax cannot name (``dataclasses.replace``, ``functools.partial``).
_FORWARDING = ("replace", "partial")


class _Uses:
    """What a Python corpus refers to: *names* (identifiers, attributes,
    imported names, string words); *words*, the options it uses by bare
    name (attribute stores, strings, keywords of a callee the syntax
    cannot name); and per named callee the *keywords* passed to it, the
    most arguments passed to it by position, and whether a ``*``/``**``
    call (*starred*) may fill any of its options."""

    def __init__(self):
        self.names, self.words = set(), set()
        self.keywords, self.starred = set(), set()
        self.positional = {}

    def __ior__(self, other):
        self.names |= other.names
        self.words |= other.words
        self.keywords |= other.keywords
        self.starred |= other.starred
        for callee, count in other.positional.items():
            self.positional[callee] = max(count,
                                          self.positional.get(callee, 0))
        return self

    def uses(self, name, callee=None, position=None):
        """Whether the corpus uses the name *name* or, given its
        *callee*, that callee's option *name*."""
        if callee is None:
            return name in self.names
        return (name in self.words or (callee, name) in self.keywords
                or callee in self.starred
                or position is not None
                and self.positional.get(callee, 0) > position)


def _callee(func, variables):
    """The name the callee *func* goes by, or ``None`` when the syntax
    cannot name it: a computed callee (``super().__init__``), a private
    or forwarding one, or one of the file's *variables* (``cls``, a
    parameter, an assigned name)."""
    if isinstance(func, ast.Attribute):
        name = func.attr
    elif isinstance(func, ast.Name) and func.id not in variables:
        name = func.id
    else:
        return None
    return None if name.startswith("_") or name in _FORWARDING else name


def _read_call(call, callee, uses):
    keywords = {keyword.arg for keyword in call.keywords if keyword.arg}
    if callee is None:
        uses.words |= keywords
        return
    uses.keywords |= {(callee, keyword) for keyword in keywords}
    if len(keywords) < len(call.keywords) \
            or any(isinstance(arg, ast.Starred) for arg in call.args):
        uses.starred.add(callee)
    uses.positional[callee] = max(len(call.args),
                                  uses.positional.get(callee, 0))


def _exports(tree):
    """The ids of the string constants of *tree*'s ``__all__``."""
    found = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [getattr(node, "target", None)]
        if any(getattr(target, "id", None) == "__all__"
               for target in targets) and node.value is not None:
            found |= {id(item) for item in ast.walk(node.value)}
    return found


def _references(source, lazy_table=False):
    """The :class:`_Uses` of *source*: see the module docstring.  A
    *lazy_table* (a package ``__init__.py``) contributes no string."""
    tree = ast.parse(source)
    exports = _exports(tree)
    dict_keys = {id(key) for node in ast.walk(tree)
                 if isinstance(node, ast.Dict) for key in node.keys}
    variables = {node.id if isinstance(node, ast.Name) else node.arg
                 for node in ast.walk(tree)
                 if isinstance(node, ast.arg) or isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Store)}
    uses = _Uses()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses.names.add(node.id)
        elif isinstance(node, ast.Attribute):
            uses.names.add(node.attr)
            if isinstance(node.ctx, ast.Store) and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                uses.words.add(node.attr)
        elif isinstance(node, ast.alias):
            uses.names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Call):
            _read_call(node, _callee(node.func, variables), uses)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and not lazy_table and id(node) not in exports \
                and not re.search(r"\s", node.value):
            words = set(_WORD.findall(node.value))
            uses.names |= words
            if id(node) not in dict_keys:
                uses.words |= words
    return uses


def _python_files(corpus):
    if corpus == "src":
        return [(path, path.name == "__init__.py")
                for path in sorted(SRC.rglob("*.py"))]
    if corpus == "tests":  # the allow-list names what it allows
        return [(path, False)
                for path in sorted((ROOT / "tests").rglob("*.py"))
                if path.resolve() != Path(__file__).resolve()]
    return [(path, False) for path in sorted((ROOT / corpus).rglob("*.py"))]


class _Text(set):
    """The words of a text corpus; also holds every name one of its
    globbed families (``prefix_*``) matches.  Docs are prose: a word
    uses every name and option it spells."""

    def __init__(self, text):
        super().__init__(_WORD.findall(text))
        self.families = tuple(_FAMILY.findall(text))

    def __contains__(self, name):
        return super().__contains__(name) or name.startswith(self.families)

    def uses(self, name, callee=None, position=None):
        return name in self


def corpora():
    """``{corpus: uses}`` — what each corpus refers to."""
    found = {}
    for corpus in ("src", "examples", "benchmarks", "tests"):
        uses = found[corpus] = _Uses()
        for path, lazy_table in _python_files(corpus):
            uses |= _references(path.read_text(), lazy_table)
    for corpus, paths in (
            ("static", sorted(SRC.glob("*/static/*"))),
            ("docs", [ROOT / name for name in DOCS])):
        found[corpus] = _Text("\n".join(path.read_text() for path in paths))
    return found


@functools.cache
def census(packages=PACKAGES):
    """``{package: [(key, kind, corpora that use it), ...]}``."""
    refs = corpora()
    table = {}
    for package, rows in surface(packages).items():
        table[package] = [
            (key, kind, [corpus for corpus in CORPORA
                         if refs[corpus].uses(name, callee, position)])
            for key, kind, name, callee, position in rows]
    return table


def unused_outside_tests(table):
    """The keys no corpus but ``tests`` uses: used by the tests alone,
    or by nothing."""
    return sorted(key for rows in table.values()
                  for key, _, used in rows if set(used) <= {"tests"})


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------
def test_no_public_name_is_used_by_the_tests_alone():
    unexplained = [key for key in unused_outside_tests(census())
                   if key not in ALLOWED]
    assert not unexplained, (
        "used by tests alone, or by nothing — delete it (and its tests), "
        "make it a constant, or list it in ALLOWED with a reason:\n"
        + "\n".join(unexplained))


def test_every_allowed_name_is_still_test_only():
    stale = sorted(set(ALLOWED) - set(unused_outside_tests(census())))
    assert not stale, "no longer test-only; drop from ALLOWED:\n" + \
        "\n".join(stale)


def test_the_surface_only_shrinks():
    measured = measure()
    grown = {}
    for package in PACKAGES:
        now = (measured[f"public_names@{package}"],
               measured[f"options@{package}"])
        budget = BUDGET.get(package)
        if budget is None or now[0] > budget[0] or now[1] > budget[1]:
            grown[package] = (now, budget)
    assert not grown, grown


def test_the_census_reads_every_kind_of_use():
    """The census is only as good as its readers: each spelling of a
    use is seen, and a definition, a docstring or a payload key is no
    use."""
    defined = sorted(_surface_of(
        "def f(a, b=1, *, c=2):\n"
        "    '''Call f(b=2) to use it.'''\n"
        "class K:\n"
        "    def __init__(self, x, y=0): pass\n"
        "    def m(self, z=None): pass\n"
        "    @staticmethod\n"
        "    def s(w=0): pass\n"
        "    @property\n"
        "    def p(self): return 1\n"
        "    def _private(self): pass\n"
        "class _Hidden:\n"
        "    def m(self): pass\n", "pkg.mod"))
    assert defined == [
        ("pkg.mod:K", "name", "K", None, None),
        ("pkg.mod:K(y=)", "option", "y", "K", 1),
        ("pkg.mod:K.m", "name", "m", None, None),
        ("pkg.mod:K.m(z=)", "option", "z", "m", 0),
        ("pkg.mod:K.p", "name", "p", None, None),
        ("pkg.mod:K.s", "name", "s", None, None),
        ("pkg.mod:K.s(w=)", "option", "w", "s", 0),
        ("pkg.mod:f", "name", "f", None, None),
        ("pkg.mod:f(b=)", "option", "b", "f", 1),
        ("pkg.mod:f(c=)", "option", "c", "f", None)]
    fields = list(_surface_of(
        "@dataclass\n"
        "class C:\n"
        "    need: int\n"
        "    knob: int = 1\n"
        "    _seen: int = 0\n"
        "    id: int = field(default=0, init=False)\n"
        "    last: int = 2\n", "pkg.mod"))
    assert fields == [("pkg.mod:C", "name", "C", None, None),
                      ("pkg.mod:C(knob=)", "option", "knob", "C", 1),
                      ("pkg.mod:C(last=)", "option", "last", "C", 3)]
    uses = _references(
        "from x import alpha\n"
        "beta()\n"
        "obj.gamma\n"
        "route = ('GET', '/api/x', 'delta')\n"
        "obj.zeta = 2\n"
        "self.kappa = 3\n"
        "params.get('eta')\n"
        "payload = {'theta': 1}\n"
        "'''A docstring naming iota.'''\n")
    assert all(uses.uses(name) for name in
               ("alpha", "beta", "gamma", "delta", "eta", "theta"))
    assert not uses.uses("iota")
    assert all(uses.uses(option, "Any", None)
               for option in ("zeta", "eta"))
    assert not any(uses.uses(option, "Any", None)
                   for option in ("theta", "gamma", "iota", "kappa"))
    assert _references("T = {'Name': '.module'}\n",
                       lazy_table=True).names == {"T"}
    docs = _Text("The client: `RTMClient.trace_*` and `overview()`.")
    assert all(docs.uses(name)
               for name in ("trace_start", "trace_query", "overview"))
    assert not docs.uses("profile_start")


def test_the_census_matches_each_option_to_its_callee():
    """A module's own ``__all__`` is no use; a call fills the options of
    the callee it names — by keyword, by position, or all of them
    through ``*``/``**`` — and a callee the syntax cannot name counts
    by bare keyword.  An option no corpus but the tests uses, or none
    at all, fails the gate."""
    exported = _references("__all__ = ['alpha']\n"
                           "__all__ += ['beta']\n")
    assert not exported.uses("alpha") and not exported.uses("beta")
    named = _references("Foo(x=1)\n"
                        "obj.run(2, 3)\n"
                        "Spread(*args)\n"
                        "Keyed(**options)\n")
    assert named.uses("x", "Foo", 0)
    assert not named.uses("x", "Bar", 0)
    assert named.uses("limit", "run", 1)
    assert not named.uses("limit", "run", 2)
    assert not named.uses("limit", "other", 0)
    assert named.uses("anything", "Spread", None)
    assert named.uses("anything", "Keyed", None)
    unnamed = _references("class Sub(Base):\n"
                          "    def __init__(self):\n"
                          "        super().__init__(x=1)\n"
                          "    @classmethod\n"
                          "    def make(cls):\n"
                          "        return cls(y=2)\n"
                          "factory = pick()\n"
                          "factory(z=3)\n"
                          "replace(spec, w=0)\n")
    assert all(unnamed.uses(option, "Base", None)
               for option in ("x", "y", "z", "w"))
    table = {"pkg": [("pkg.mod:K(y=)", "option", []),
                     ("pkg.mod:K(z=)", "option", ["tests"]),
                     ("pkg.mod:K(w=)", "option", ["src", "tests"]),
                     ("pkg.mod:K(v=)", "option", ["docs"])]}
    assert unused_outside_tests(table) == ["pkg.mod:K(y=)",
                                           "pkg.mod:K(z=)"]


# ----------------------------------------------------------------------
# The command line: every campaign flag has a caller
# ----------------------------------------------------------------------
#: The subcommands whose leaves the flag census walks.
CLI_PLANES = ("fleet", "historian")
#: The docs whose fenced blocks are command lines someone runs.
COMMAND_DOCS = ("README.md", "EXPERIMENTS.md")
#: The modules that build the fleet worker's command line.
WORKER_FORWARDERS = ("fleet/cli.py", "fleet/manager.py")

_JSON = "the machine-readable form every query command offers " \
    "(`historian show --json` is CI's): one convention across the CLI"
_RESUME = "declared once for `fleet run` and `fleet resume` " \
    "(`_add_fleet_common`), and passed to `fleet run`: a resumed " \
    "campaign takes the flags its run took"
_PORT = "a gateway on a known port is what an outside scraper or " \
    "dashboard is pointed at; the default is ephemeral"

#: ``"<leaf> <flag>"`` no command line passes, kept on purpose -> reason.
CLI_ALLOWED = {
    "fleet run --port": _PORT,
    "fleet resume --port": _PORT,
    "fleet run --buggy-l2": "case study 2's switch, which every run-like "
        "command takes (`run --buggy-l2`), applied to a sweep",
    "fleet run --max-retries": "the restart-policy budget; "
        "tests/fleet/test_durability_e2e.py needs a job that fails "
        "permanently (`--max-retries 0`)",
    "fleet run --checkpoint-events": "the checkpoint cadence README "
        "names; tests/fleet/test_durability_e2e.py needs a dense one on "
        "a short job",
    "fleet resume --checkpoint-events": "declared once with `fleet run "
        "--checkpoint-events` (`_add_fleet_common`), whose reason holds: "
        "a resumed campaign keeps its run's cadence",
    "fleet resume --historian": _RESUME,
    "fleet resume --campaign": _RESUME,
    "fleet resume --profile": _RESUME,
    "fleet resume --profile-out": _RESUME,
    "fleet status --url": "the shell's view of a live campaign that "
        "README and EXPERIMENTS give operators; tests/test_cli.py pins "
        "its answer to a dead gateway",
    "fleet status --json": _JSON,
    "historian list --json": _JSON,
    "historian compare --json": _JSON,
    "historian prune --max-count": "the count bound of RetentionPolicy, "
        "which EXPERIMENTS' retention check names; `historian prune` is "
        "the one door to retention",
    "worker --profile-interval": "test seam: tests/fleet/"
        "test_fleet_profile.py samples its sub-second jobs at 10 ms",
}


def cli_flags():
    """``{"<leaf> <flag>": parser}`` for every ``--flag`` of the
    campaign leaves (``"fleet run --workers"``) and of the fleet worker
    (``"worker --worker-id"``)."""
    from repro.cli import _build_parser
    from repro.fleet.worker import _build_parser as _worker_parser

    def walk(parser, path):
        subparsers = [action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)]
        for action in subparsers:
            for name, child in action.choices.items():
                yield from walk(child, path + (name,))
        if not subparsers:
            for action in parser._actions:
                for flag in action.option_strings:
                    if flag.startswith("--") and flag != "--help":
                        yield " ".join(path + (flag,))

    top = next(action for action in _build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    flags = [flag for plane in CLI_PLANES
             for flag in walk(top.choices[plane], (plane,))]
    return flags + list(walk(_worker_parser(), ("worker",)))


def _command_lines(text):
    """The shell command lines of *text*, backslash continuations
    joined, as token lists."""
    return [line.split() for line
            in text.replace("\\\n", " ").splitlines()]


def _fenced(text):
    return "\n".join(re.findall(r"^```[^\n]*\n(.*?)^```", text,
                                re.MULTILINE | re.DOTALL))


def _python_command_lines(source):
    """The lists and tuples of string constants in *source*: a command
    line a script hands to ``main`` or ``subprocess``."""
    return [[item.value for item in node.elts]
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.List, ast.Tuple)) and node.elts
            and all(isinstance(item, ast.Constant)
                    and isinstance(item.value, str) for item in node.elts)]


def _passed(lines):
    """``{"<plane> <leaf> <flag>"}`` the command lines *lines* pass."""
    passed = set()
    for tokens in lines:
        for i, (plane, leaf) in enumerate(zip(tokens, tokens[1:])):
            if plane in CLI_PLANES:
                passed |= {f"{plane} {leaf} {token.partition('=')[0]}"
                           for token in tokens[i + 2:]
                           if token.startswith("--")}
    return passed


def _forwarded(source):
    """``{"worker <flag>"}`` for every ``--flag`` string *source* puts
    on a command line — not the ones it declares with
    ``add_argument``."""
    tree = ast.parse(source)
    declared = {id(node.args[0]) for node in ast.walk(tree)
                if isinstance(node, ast.Call) and node.args
                and getattr(node.func, "attr", "") == "add_argument"}
    return {f"worker {node.value}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith("--") and id(node) not in declared}


def flag_callers():
    """``{"<leaf> <flag>"}`` that someone passes (see the docstring)."""
    lines = []
    for path in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        lines += _command_lines(path.read_text())
    for name in COMMAND_DOCS:
        lines += _command_lines(_fenced((ROOT / name).read_text()))
    for corpus in ("examples", "benchmarks"):
        for path, _ in _python_files(corpus):
            lines += _python_command_lines(path.read_text())
    passed = _passed(lines)
    for module in WORKER_FORWARDERS:
        passed |= _forwarded((SRC / module).read_text())
    return passed


def test_every_campaign_flag_is_passed_or_allowed():
    callers = flag_callers()
    unexplained = [flag for flag in cli_flags()
                   if flag not in callers and flag not in CLI_ALLOWED]
    assert not unexplained, (
        "no CI step, fenced doc command, example, benchmark or forwarder "
        "passes these — make each a constant, or list it in CLI_ALLOWED "
        "with a reason:\n" + "\n".join(unexplained))


def test_every_allowed_flag_is_still_unpassed():
    flags, callers = set(cli_flags()), flag_callers()
    stale = sorted(flag for flag in CLI_ALLOWED
                   if flag not in flags or flag in callers)
    assert not stale, "gone or passed now; drop from CLI_ALLOWED:\n" + \
        "\n".join(stale)


def test_the_flag_census_reads_every_kind_of_command_line():
    """Continuations, fences, Python lists and forwarders are read; a
    flag of another command, prose outside a fence and a declaration
    are no caller."""
    ci = ("run: |\n"
          "  PYTHONPATH=src python -m repro fleet run \\\n"
          "    --workers 2 --timeout=300\n"
          "  python -m repro profile report x.json --top 5\n")
    doc = ("Pass `repro historian compare --top 3` for more.\n"
           "```bash\n"
           "python -m repro historian prune db --kind snapshot \\\n"
           "    --max-age 60\n"
           "```\n")
    script = "main(['historian', 'list', 'db', '--json'])\n"
    assert _passed(_command_lines(ci)
                   + _command_lines(_fenced(doc))
                   + _python_command_lines(script)) == {
        "fleet run --workers", "fleet run --timeout",
        "historian prune --kind", "historian prune --max-age",
        "historian list --json"}
    assert _forwarded(
        "parser.add_argument('--port', type=int)\n"
        "args = ['--worker-id', wid]\n"
        "extra += ['--profile']\n") == {"worker --worker-id",
                                          "worker --profile"}


# ----------------------------------------------------------------------
# The counts
# ----------------------------------------------------------------------
@functools.cache
def measure():
    """Per package ``public_names@``, ``options@`` and ``test_only@``
    (names no corpus but the tests uses, the allowed ones included);
    the campaign flags and how many of them no command line passes."""
    table = census()
    alone = unused_outside_tests(table)
    measured = {}
    for package, rows in table.items():
        measured[f"public_names@{package}"] = sum(
            kind == "name" for _, kind, _ in rows)
        measured[f"options@{package}"] = sum(
            kind == "option" for _, kind, _ in rows)
        measured[f"test_only@{package}"] = sum(
            key.startswith(package + ".") for key in alone)
    flags, callers = cli_flags(), flag_callers()
    measured["flags@campaign_cli"] = len(flags)
    measured["unpassed_flags@campaign_cli"] = sum(
        flag not in callers for flag in flags)
    return measured
