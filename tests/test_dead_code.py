"""Every public module-level function and class of the package, and every
public method of such a class, has a reader: code in src/dgmg other than
its own definition, a hook target of the benchmark's tracer
(perfbench/tracing.py, read without importing dgmg through it), or the
console entry point cli.main. A name that only tests read belongs in
tests/references.py. A `self.<name>` load inside a class reads that
class's attribute only (no package class inherits from another); any
other attribute load is matched by name, so `obj.<name>` counts as a
reader of every method of that name.

Likewise every public `self.<name>` attribute that a package class's
__init__ sets has a reader outside that __init__, in src/dgmg or in
perfbench/; exception classes are exempt. An attribute that only the
constructor reads is a local of it.

And every public field of a package dataclass is read by an attribute
load in src/dgmg, perfbench/ or tests/: being set in a constructor call
is not a read, and a `self.<name>` load reads only its own class's
field. A load passed straight into a package dataclass's constructor, as
keyword `g=x.f` or in g's positional slot, only forwards the value: it
reads f if the receiving field g is read, followed transitively."""

import ast
import builtins
import itertools
import pathlib

from test_hooks import load_tracing

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "dgmg"
PERFBENCH = SRC.parents[1] / "perfbench"
TESTS = SRC.parents[1] / "tests"
ENTRY_POINTS = {("dgmg.cli", "main")}


def package_modules() -> dict:
    return {
        f"dgmg.{path.stem}": ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def public_definitions(modules: dict):
    """(module, qualified name, node) of the public functions and classes
    and of the public methods of those classes."""
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield module, node.name, node
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield module, f"{node.name}.{item.name}", item


def self_attributes(modules: dict) -> dict:
    """id of every `self.<name>` node -> the (module, class) it reads."""
    owners = {}
    for module, tree in modules.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in ast.walk(cls):
                    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                            and node.value.id == "self"):
                        owners.setdefault(id(node), (module, cls.name))
    return owners


def is_read(module: str, qualname: str, definition: ast.AST, modules: dict,
            owners: dict) -> bool:
    """A load of the name, or an attribute of that name, outside its own
    definition anywhere in the package; a `self.` load counts only in the
    defining class."""
    name, owner = definition.name, (module, qualname.rpartition(".")[0])
    own = {id(node) for node in ast.walk(definition)}
    for tree in modules.values():
        for node in ast.walk(tree):
            if id(node) in own:
                continue
            if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
                return True
            if (isinstance(node, ast.Attribute) and node.attr == name
                    and owners.get(id(node), owner) == owner):
                return True
    return False


def unread_names(modules: dict, exempt: set) -> list[str]:
    owners = self_attributes(modules)
    return [
        f"{module}.{name}"
        for module, name, node in public_definitions(modules)
        if (module, name) not in exempt and not is_read(module, name, node, modules, owners)
    ]


def is_exception(cls: ast.ClassDef) -> bool:
    """A class deriving from a builtin exception (no package class derives
    from another)."""
    bases = [getattr(builtins, base.id, None) for base in cls.bases if isinstance(base, ast.Name)]
    return any(isinstance(base, type) and issubclass(base, BaseException) for base in bases)


def constructor_only_attributes(modules: dict, readers: list) -> list[str]:
    """module.Class.name of each public `self.<name>` that a package class's
    __init__ stores and that no attribute load outside that __init__ reads,
    in the package (`self.` loads in the same class only) or in the reader
    trees."""
    owners = self_attributes(modules)
    unread = []
    for module, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or is_exception(cls):
                continue
            for init in cls.body:
                if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                    continue
                own = {id(node) for node in ast.walk(init)}
                stored = dict.fromkeys(
                    node.attr for node in ast.walk(init)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                    and not node.attr.startswith("_"))
                loads = {
                    node.attr for other in [*modules.values(), *readers]
                    for node in ast.walk(other)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and id(node) not in own
                    and owners.get(id(node), (module, cls.name)) == (module, cls.name)}
                unread += [f"{module}.{cls.name}.{name}" for name in stored if name not in loads]
    return unread


def is_dataclass(cls: ast.ClassDef) -> bool:
    """Decorated with @dataclass or @dataclass(...), plain or qualified."""
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def forwards(tree: ast.AST, fields: dict) -> dict:
    """id of each attribute load that tree passes straight into the
    constructor of a package dataclass -> (class name, receiving field);
    fields maps each dataclass's name to its field names in order."""
    targets = {}
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if name not in fields:
            continue
        positional = itertools.takewhile(lambda a: not isinstance(a, ast.Starred), call.args)
        for field, arg in [*zip(fields[name], positional),
                           *((kw.arg, kw.value) for kw in call.keywords)]:
            if isinstance(arg, ast.Attribute) and field is not None:
                targets[id(arg)] = (name, field)
    return targets


def unread_fields(modules: dict, readers: list) -> list[str]:
    """module.Class.name of each public field of a package dataclass that no
    attribute load reads: in the package a `self.` load counts only in the
    field's class, and in the reader trees it reads the reader's own
    classes and does not count. A load forwarded into a dataclass
    constructor counts once its receiving field is read."""
    owners = self_attributes(modules)
    records = {cls.name: (module, cls) for module, tree in modules.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) and is_dataclass(cls)}
    fields = {name: [item.target.id for item in cls.body
                     if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
              for name, (_, cls) in records.items()}
    # attribute name -> (owning (module, class) or None, forward target or None)
    loads = {}
    for tree, package in [*((t, True) for t in modules.values()), *((t, False) for t in readers)]:
        targets = forwards(tree, fields)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            if not package and isinstance(node.value, ast.Name) and node.value.id == "self":
                continue
            loads.setdefault(node.attr, []).append((owners.get(id(node)), targets.get(id(node))))
    read = set()
    while True:
        new = {(name, f) for name, (module, _) in records.items() for f in fields[name]
               if (name, f) not in read and any(
                   owner in (None, (module, name)) and (target is None or target in read)
                   for owner, target in loads.get(f, ()))}
        if not new:
            break
        read |= new
    return [f"{module}.{name}.{f}" for name, (module, _) in records.items() for f in fields[name]
            if not f.startswith("_") and (name, f) not in read]


def test_every_public_name_has_a_reader():
    hooks = {(h.module, h.target) for h in load_tracing().HOOKS}
    hooks |= {(module, target.partition(".")[0]) for module, target in hooks}
    assert unread_names(package_modules(), hooks | ENTRY_POINTS) == []


def test_checker_flags_a_name_read_only_by_itself():
    tree = ast.parse(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "class Orphan:\n    pass\n\n"
        "def hooked():\n    pass\n\n"
        "class Owner:\n"
        "    def read(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        return 2\n\n"
        "    def unread(self):\n        return self.unread\n\n"
        "    def _private(self):\n        pass\n\n"
        "    def hooked_method(self):\n        pass\n\n"
        "    def shared(self):\n        return 3\n\n"
        "class Other:\n"
        "    def shared(self):\n        return 4\n\n"
        "    def run(self):\n        return self.shared()\n\n"
        "Owner().read()\n"
        "Other().run()\n"
    )
    modules = {"dgmg.sample": tree}
    exempt = {("dgmg.sample", "hooked"), ("dgmg.sample", "Owner.hooked_method")}
    assert unread_names(modules, exempt) == [
        "dgmg.sample.recursive", "dgmg.sample.Orphan", "dgmg.sample.Owner.unread",
        "dgmg.sample.Owner.shared",
    ]


def test_every_constructor_attribute_has_a_reader():
    readers = [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]
    assert constructor_only_attributes(package_modules(), readers) == []


def test_checker_flags_an_attribute_only_its_constructor_reads():
    tree = ast.parse(
        "class Owner:\n"
        "    def __init__(self, n):\n"
        "        self.kept = n\n"
        "        self.local = n + 1\n"
        "        self.doubled = 2 * self.local\n"
        "        self.external = n\n"
        "        self._private = n\n\n"
        "    def read(self):\n        return self.kept + self.doubled\n\n"
        "class Other:\n"
        "    def __init__(self):\n        self.other_only = 1\n\n"
        "    def read(self):\n        return self.local + self.other_only\n\n"
        "class Failure(RuntimeError):\n"
        "    def __init__(self, where):\n        self.where = where\n"
    )
    reader = ast.parse("def f(owner):\n    return owner.external\n")
    assert constructor_only_attributes({"dgmg.sample": tree}, [reader]) == [
        "dgmg.sample.Owner.local"]


def test_every_dataclass_field_has_a_reader():
    readers = [ast.parse(path.read_text())
               for path in sorted([*PERFBENCH.glob("*.py"), *TESTS.glob("*.py")])]
    assert unread_fields(package_modules(), readers) == []


def test_checker_flags_a_field_nothing_reads():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "import dataclasses\n\n"
        "@dataclass\n"
        "class Record:\n"
        "    kept: int\n"
        "    set_only: int\n"
        "    external: int = 0\n"
        "    self_read: int = 0\n"
        "    _private: int = 0\n\n"
        "    def total(self):\n        return self.self_read\n\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Frozen:\n"
        "    other_only: int\n"
        "    unread: int\n\n"
        "    def read(self):\n        return self.kept + self.other_only\n\n"
        "class Plain:\n"
        "    annotated: int\n\n"
        "def f(r):\n    return r.kept + Record(1, set_only=2).total()\n"
    )
    reader = ast.parse(
        "class Test:\n"
        "    def test(self, frozen):\n        return frozen.external + self.unread\n"
    )
    # Frozen.other_only is read by its own class's self.other_only
    assert unread_fields({"dgmg.sample": tree}, [reader]) == [
        "dgmg.sample.Record.set_only", "dgmg.sample.Frozen.unread"]


def test_checker_follows_values_forwarded_into_records():
    # a load only passed on into a record's constructor reads nothing
    # unless the receiving field is read: Result.residual_initial goes into
    # Stage.residual_initial, which nothing reads, so both are flagged;
    # Result.iters reaches Stage.iters positionally, and Stage.iters is read
    tree = ast.parse(
        "from dataclasses import dataclass\n\n"
        "@dataclass\n"
        "class Result:\n"
        "    iters: int\n"
        "    residual_initial: float\n"
        "    chained: int = 0\n\n"
        "@dataclass\n"
        "class Stage:\n"
        "    iters: int\n"
        "    residual_initial: float = 0.0\n"
        "    relay: int = 0\n"
        "    loop: int = 0\n\n"
        "@dataclass\n"
        "class Row:\n"
        "    relay: int\n\n"
        "def stage(res, old):\n"
        "    s = Stage(res.iters, residual_initial=res.residual_initial,\n"
        "              relay=res.chained, loop=old.loop)\n"
        "    return Row(relay=s.relay), s\n"
    )
    reader = ast.parse("def f(stage):\n    return stage.iters\n")
    assert unread_fields({"dgmg.sample": tree}, [reader]) == [
        "dgmg.sample.Result.residual_initial", "dgmg.sample.Result.chained",
        "dgmg.sample.Stage.residual_initial", "dgmg.sample.Stage.relay",
        "dgmg.sample.Stage.loop", "dgmg.sample.Row.relay"]
