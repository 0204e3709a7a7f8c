"""Package-wide rules of the source.  Every numeric routine takes its
PrecisionContext from the caller: no ``ctx`` parameter anywhere in the
package has a default to fall back on.  And every module-level name the
package defines is used by the package or exported by it, so that code
only the tests call lives in the tests, every method of a class the
package does not export is referenced by the package, every module-level
import is used by its module, every parameter of a module-level
private function is read by its body, and every defaulted parameter of
a function that the package calls and does not export is omitted by at
least one of those calls."""

import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import maassjacobi


def _routines():
    for info in pkgutil.iter_modules(maassjacobi.__path__):
        module = importlib.import_module(f"maassjacobi.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_ctx_is_never_defaulted():
    seen, defaulted = 0, []
    for qualname, fn in _routines():
        param = inspect.signature(fn).parameters.get("ctx")
        if param is None:
            continue
        seen += 1
        if param.default is not inspect.Parameter.empty:
            defaulted.append(qualname)
    assert seen > 30
    assert defaulted == []


def _reads(stmt):
    """The names a statement reads, as names or attributes, or imports."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _defines(stmt):
    """The names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _trees():
    """Each module's syntax tree by its name, and the names ``__init__``
    exports."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(maassjacobi.__file__).parent.glob("*.py")}
    exported = {alias.name for stmt in trees["__init__"].body
                if isinstance(stmt, ast.ImportFrom) for alias in stmt.names}
    return trees, exported


def test_every_definition_is_exported_or_used():
    # a name only the tests call belongs in the tests
    trees, exported = _trees()
    reads = [(module, stmt, Counter(_reads(stmt)))
             for module, tree in trees.items() for stmt in tree.body]
    total = sum((own for _, _, own in reads), Counter())
    unused = [f"{module}.{name}" for module, stmt, own in reads for name in _defines(stmt)
              if not (name.startswith("__") and name.endswith("__"))
              and name not in exported and total[name] == own[name]]
    assert unused == []


def test_every_method_of_an_unexported_class_is_referenced():
    # a method only the tests call belongs in the tests; a dunder is called
    # by its protocol, and an override by the callers of its base's method
    trees, exported = _trees()
    total = Counter(name for tree in trees.values() for name in _reads(tree))
    unused = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name in exported:
                continue
            bases = getattr(importlib.import_module(f"maassjacobi.{module}"),
                            cls.name).__mro__[1:]
            unused += [f"{module}.{cls.name}.{fn.name}" for fn in cls.body
                       if isinstance(fn, ast.FunctionDef)
                       and not (fn.name.startswith("__") and fn.name.endswith("__"))
                       and not any(hasattr(base, fn.name) for base in bases)
                       and total[fn.name] == Counter(_reads(fn))[fn.name]]
    assert unused == []


def _imported(stmt):
    """The names a module-level import statement binds."""
    if isinstance(stmt, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
    if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
        return [alias.asname or alias.name for alias in stmt.names]
    return []


def test_every_import_is_used():
    # cli imports these two only so that the benchmark tracer can patch them
    # in its namespace (ROADMAP item 4); __init__'s imports are the exports
    allowed = {"cli.casimir_residual", "cli.poincare_csum"}
    unused = []
    for path in Path(maassjacobi.__file__).parent.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for stmt in tree.body for name in _imported(stmt)
                   if name not in names]
    assert sorted(set(unused) - allowed) == []


def test_every_parameter_of_a_private_function_is_read():
    # a module-level helper's callers are all in the package, so a parameter
    # its body never reads is one they pass for nothing
    unread = []
    for path in Path(maassjacobi.__file__).parent.glob("*.py"):
        for fn in ast.parse(path.read_text()).body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [p for p in (a.vararg, a.kwarg) if p is not None]]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.stem}.{fn.name}({p})" for p in params if p not in read]
    assert unread == []


def _omits(call: ast.Call, fn: ast.FunctionDef, name: str) -> bool:
    """Whether ``call`` leaves the parameter ``name`` of ``fn`` to its default."""
    if any(k.arg in (name, None) for k in call.keywords):   # None: **kwargs
        return False
    positional = [p.arg for p in fn.args.posonlyargs + fn.args.args]
    if name not in positional:
        return True
    return (not any(isinstance(a, ast.Starred) for a in call.args)
            and len(call.args) <= positional.index(name))


def test_every_default_is_omitted_by_a_call():
    # a default that every caller in the package overrides is one no call
    # uses: the parameter should be required
    trees, exported = _trees()
    functions = {fn.name: (module, fn) for module, tree in trees.items() for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) and fn.name not in exported}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in functions:
                    calls.setdefault(name, []).append(node)
    unused = []
    for name, found in calls.items():
        module, fn = functions[name]
        a = fn.args
        positional = a.posonlyargs + a.args
        defaulted = ([p.arg for p in positional[len(positional) - len(a.defaults):]]
                     + [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None])
        unused += [f"{module}.{name}({p})" for p in defaulted
                   if not any(_omits(call, fn, p) for call in found)]
    assert unused == []
