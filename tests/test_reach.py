"""`tools/reach.py` finds each function and method of a module, with its
first line and line count, without running the profiler."""

import importlib.util
import os
import textwrap

REACH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools", "reach.py")

MODULE = textwrap.dedent('''\
    import functools


    @functools.lru_cache(maxsize=None)
    @functools.wraps(print)
    def cached(x):
        return x


    class Outer:
        class Inner:
            def method(self):
                return 1

        def run(self):
            def helper():
                return 2

            return helper()
''')


def load_reach():
    spec = importlib.util.spec_from_file_location("reach", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_units_count_decorators_qualify_nested_classes_and_fold_nested_functions(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(MODULE, encoding="utf-8")
    assert load_reach().units(str(path)) == [
        # a decorated function starts, and is counted, from its first decorator
        ("cached", 4, "cached", 4),
        ("Outer.Inner.method", 12, "method", 2),
        # the nested helper is no unit of its own: run's count holds it
        ("Outer.run", 15, "run", 5),
    ]
