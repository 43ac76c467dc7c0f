"""Symbol table: module naming and strict call resolution."""

import ast
import textwrap

from repro.analysis.context import FileContext, Project
from repro.analysis.symbols import module_name_for_path


def make_project(files):
    ctxs = []
    for rel, source in files.items():
        text = textwrap.dedent(source)
        ctxs.append(FileContext(rel, text, ast.parse(text)))
    return Project(ctxs)


def resolved_callees(project, qualname):
    """Qualnames of the calls in ``qualname``'s body that resolve."""
    table = project.symbols
    info = table.by_qualname[qualname]
    mod = table.modules[info.module]
    callees = set()
    for node in ast.walk(info.node):
        if isinstance(node, ast.Call):
            callee = table.resolve_call(node.func, mod, info)
            if callee is not None:
                callees.add(callee.qualname)
    return callees


class TestModuleNames:
    def test_anchored_at_last_repro_component(self):
        assert module_name_for_path(
            "/tmp/x/repro/net/link.py") == "repro.net.link"
        assert module_name_for_path(
            "src/repro/sim/engine.py") == "repro.sim.engine"

    def test_mirror_tree_resolves_like_real_tree(self):
        # Fixture mirrors under tmp/.../repro/ must collide on purpose.
        real = module_name_for_path("src/repro/net/link.py")
        mirror = module_name_for_path("/tmp/pytest-1/repro/net/link.py")
        assert real == mirror

    def test_package_init_maps_to_package(self):
        assert module_name_for_path(
            "src/repro/fabric/__init__.py") == "repro.fabric"


class TestResolution:
    def test_local_and_imported_functions(self):
        project = make_project({
            "repro/sim/a.py": """\
            from repro.sim.b import helper

            def caller():
                helper()
                local()

            def local():
                pass
            """,
            "repro/sim/b.py": """\
            def helper():
                pass
            """,
        })
        assert resolved_callees(project, "repro.sim.a.caller") == {
            "repro.sim.b.helper", "repro.sim.a.local"}

    def test_bound_method_with_inheritance(self):
        project = make_project({
            "repro/sim/m.py": """\
            class Base:
                def shared(self):
                    pass

            class Child(Base):
                def run(self):
                    self.shared()
            """,
        })
        assert resolved_callees(project, "repro.sim.m.Child.run") == {
            "repro.sim.m.Base.shared"}

    def test_decorated_function_is_indexed_and_resolved(self):
        project = make_project({
            "repro/sim/d.py": """\
            import functools

            @functools.lru_cache(maxsize=None)
            def cached():
                pass

            def caller():
                cached()
            """,
        })
        assert resolved_callees(project, "repro.sim.d.caller") == {
            "repro.sim.d.cached"}

    def test_constructor_resolves_to_init(self):
        project = make_project({
            "repro/sim/c.py": """\
            class Thing:
                def __init__(self):
                    pass

            def build():
                return Thing()
            """,
        })
        assert resolved_callees(project, "repro.sim.c.build") == {
            "repro.sim.c.Thing.__init__"}

    def test_nested_def_is_indexed_and_resolved(self):
        project = make_project({
            "repro/sim/n.py": """\
            def target():
                pass

            def outer():
                def inner():
                    target()
                return inner
            """,
        })
        assert resolved_callees(project, "repro.sim.n.outer.inner") == {
            "repro.sim.n.target"}

    def test_unknown_receiver_does_not_resolve(self):
        project = make_project({
            "repro/sim/q.py": """\
            class DropTail:
                def enqueue(self, p):
                    pass

            def pump(queue, p):
                queue.enqueue(p)
            """,
        })
        assert resolved_callees(project, "repro.sim.q.pump") == set()
