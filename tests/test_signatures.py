"""Every numeric routine takes its PrecisionContext from the caller: no
``ctx`` parameter anywhere in the package has a default to fall back on."""

import importlib
import inspect
import pkgutil

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
