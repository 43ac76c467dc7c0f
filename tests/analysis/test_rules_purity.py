"""Burst-drain callback-purity rules: REPRO701/702."""

import shutil
from pathlib import Path

from repro.analysis import lint_paths
from tests.analysis.conftest import rule_ids

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

# A minimal drain loop with the no-re-read protocol, mirroring the
# shape of repro.net.link._drain_burst.
_CLEAN_LOOP = """\
def drain(sim, vh, heap_pop):
    rebound = True
    while vh:
        if rebound:
            bound = vh[0][0]
            rebound = False
        head = step(vh)
        if head is not None:
            items.popleft()
            _heappush(vh, head)
        if head is not None and queue.__class__ is DropTailQueue:
            continue
        rebound = True
        if sim._stopped:
            break
"""


class TestFastPathPurity:
    def test_clean_protocol_loop_passes(self, lint_source):
        result = lint_source(_CLEAN_LOOP, rel="net/fixture.py")
        assert "REPRO701" not in rule_ids(result)

    def test_event_push_in_fast_path_is_flagged(self, lint_source):
        result = lint_source("""\
        def drain(sim, vh):
            while vh:
                head = step(vh)
                if head is not None:
                    sim._push(head[0], head)
                if head is not None and queue.__class__ is DropTailQueue:
                    continue
                rebound = True
        """, rel="net/fixture.py")
        assert "REPRO701" in rule_ids(result)

    def test_unresolved_call_in_fast_path_is_flagged(self, lint_source):
        result = lint_source("""\
        def drain(sim, vh):
            while vh:
                head = step(vh)
                if head is not None:
                    mystery_callback(head)
                if head is not None and queue.__class__ is DropTailQueue:
                    continue
                rebound = True
        """, rel="net/fixture.py")
        assert "REPRO701" in rule_ids(result)

    def test_impurity_found_through_call_closure(self, lint_source):
        # enqueue() looks innocent at the call site; its body pushes an
        # event, which the duck call-graph closure must surface.
        result = lint_source("""\
        class Interface:
            def enqueue(self, packet):
                self.sim._push(0.0, packet)

        def drain(sim, vh, iface):
            while vh:
                head = step(vh)
                if head is not None:
                    iface.enqueue(head)
                if head is not None and queue.__class__ is DropTailQueue:
                    continue
                rebound = True
        """, rel="net/fixture.py")
        assert "REPRO701" in rule_ids(result)

    def test_exception_constructor_is_exempt(self, lint_source):
        result = lint_source("""\
        def drain(sim, vh):
            while vh:
                head = step(vh)
                if head is not None:
                    if head[0] < 0:
                        raise QueueError("negative byte occupancy")
                    _heappush(vh, head)
                if head is not None and queue.__class__ is DropTailQueue:
                    continue
                rebound = True
        """, rel="net/fixture.py")
        assert "REPRO701" not in rule_ids(result)

    def test_outside_sim_scope_is_ignored(self, lint_source):
        result = lint_source("""\
        def drain(sim, vh):
            while vh:
                head = step(vh)
                if head is not None:
                    sim._push(head[0], head)
                if head is not None and queue.__class__ is DropTailQueue:
                    continue
        """, rel="runner/fixture.py")
        assert "REPRO701" not in rule_ids(result)


class TestRebindProtocol:
    def test_skip_without_head_guard_is_flagged(self, lint_source):
        result = lint_source("""\
        def drain(sim, vh):
            while vh:
                head = step(vh)
                if queue.__class__ is DropTailQueue:
                    continue
                rebound = True
        """, rel="net/fixture.py")
        assert "REPRO702" in rule_ids(result)

    def test_loop_without_rebound_trigger_is_flagged(self, lint_source):
        result = lint_source("""\
        def drain(sim, vh):
            while vh:
                head = step(vh)
                if head is not None and queue.__class__ is DropTailQueue:
                    continue
        """, rel="net/fixture.py")
        assert "REPRO702" in rule_ids(result)

    def test_full_protocol_is_clean(self, lint_source):
        result = lint_source(_CLEAN_LOOP, rel="net/fixture.py")
        assert "REPRO702" not in rule_ids(result)


class TestMutationOnRealLink:
    """The rules must catch seeded violations in the real burst engine."""

    def _mirror(self, tmp_path, mutate=None):
        dst = tmp_path / "repro" / "net"
        dst.mkdir(parents=True)
        for name in ("link.py", "interface.py", "queues.py"):
            shutil.copy(REPO_SRC / "net" / name, dst / name)
        if mutate:
            old, new = mutate
            text = (dst / "link.py").read_text()
            assert old in text
            (dst / "link.py").write_text(text.replace(old, new))
        return lint_paths([str(tmp_path)], select=["REPRO7"])

    def test_pristine_link_is_clean(self, tmp_path):
        result = self._mirror(tmp_path)
        assert not rule_ids(result)

    def test_seeded_push_in_fast_path_is_caught(self, tmp_path):
        # The 24-space indent pins the anchor to _drain_burst's inline
        # fast path.
        result = self._mirror(tmp_path, mutate=(
            " " * 24 + "queue.bytes_out += hsize",
            " " * 24 + "queue.bytes_out += hsize\n"
            + " " * 24 + "sim._push(t, record)",
        ))
        assert "REPRO701" in rule_ids(result)

    def test_seeded_callback_in_fast_path_is_caught(self, tmp_path):
        # iface.enqueue duck-resolves to Interface.enqueue, whose body
        # contains the inline schedule skeleton (an event push).
        result = self._mirror(tmp_path, mutate=(
            " " * 24 + "queue.departures += 1",
            " " * 24 + "queue.departures += 1\n"
            + " " * 24 + "iface.enqueue(head)",
        ))
        assert "REPRO701" in rule_ids(result)

    def test_removed_rebound_trigger_is_caught(self, tmp_path):
        result = self._mirror(tmp_path, mutate=(
            "            rebound = True\n"
            "            if sim._stopped:",
            "            if sim._stopped:",
        ))
        assert "REPRO702" in rule_ids(result)

    def test_dropped_head_guard_is_caught(self, tmp_path):
        result = self._mirror(tmp_path, mutate=(
            "if head is not None and queue.__class__ is DropTailQueue:",
            "if queue.__class__ is DropTailQueue:",
        ))
        assert "REPRO702" in rule_ids(result)
