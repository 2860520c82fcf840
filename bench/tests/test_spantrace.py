"""The outside-in tracer on a synthetic nested call tree with a fake clock.

    python3 -m pytest bench/tests
"""
import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import spantrace  # noqa: E402


class Clock:
    t = 0.0

    def __call__(self):
        return self.t


LIB = '''
def leaf(k):
    CLOCK.t += k
    return k

def mid():
    CLOCK.t += 1
    leaf(2)
    leaf(3)
    return "mid"

def top():
    CLOCK.t += 10
    return mid()

def _private():
    return leaf(100)

class Box:
    def area(self):
        CLOCK.t += 4
        return leaf(1)
'''


def _modules(clock):
    lib = types.ModuleType("fakelib")
    lib.CLOCK = clock
    exec(LIB, lib.__dict__)
    user = types.ModuleType("fakeuser")
    user.leaf = lib.leaf  # as ``from fakelib import leaf`` would bind it
    exec("def call_leaf():\n    return leaf(7)\n", user.__dict__)
    return lib, user


def _traced(clock, lib, user):
    tracer = spantrace.Tracer(clock=clock)
    targets = [(mod, attr, f"lib.{attr}") for mod, attr in spantrace.public_functions(lib)]
    targets.append((lib.Box, "area", "lib.Box.area"))
    tracer.install(targets, [lib, user],
                   {"lib.leaf": lambda args, out: {"units": args[0]}})
    return tracer


def test_public_functions_skip_private_names_and_classes():
    _, names = zip(*spantrace.public_functions(_modules(Clock())[0]))
    assert sorted(names) == ["leaf", "mid", "top"]


def test_nested_spans_parents_and_self_time():
    clock = Clock()
    lib, user = _modules(clock)
    tracer = _traced(clock, lib, user)
    tracer.enabled = True
    tracer.op = "op-1"
    assert lib.top() == "mid"
    tracer.op = "op-2"
    assert user.call_leaf() == 7  # reaches leaf through the rebound alias
    assert lib.Box().area() == 1
    tracer.enabled = False

    names = [s[spantrace.NAME] for s in tracer.spans]
    assert names == ["lib.top", "lib.mid", "lib.leaf", "lib.leaf", "lib.leaf",
                     "lib.Box.area", "lib.leaf"]
    parents = [s[spantrace.PARENT] for s in tracer.spans]
    assert parents == [-1, 0, 1, 1, -1, -1, 5]
    assert [s[spantrace.OP] for s in tracer.spans] == ["op-1"] * 4 + ["op-2"] * 3

    summary = spantrace.summarize(tracer.spans)
    assert summary["lib.top"] == {"calls": 1, "s": 16.0, "self_s": 10.0}
    assert summary["lib.mid"] == {"calls": 1, "s": 6.0, "self_s": 1.0}
    assert summary["lib.leaf"] == {"calls": 4, "s": 13.0, "self_s": 13.0, "units": 13}
    assert summary["lib.Box.area"] == {"calls": 1, "s": 5.0, "self_s": 4.0}


def test_summarize_a_slice_keeps_parent_indices():
    clock = Clock()
    lib, user = _modules(clock)
    tracer = _traced(clock, lib, user)
    tracer.enabled = True
    lib.leaf(5)
    first = len(tracer.spans)
    lib.top()
    summary = spantrace.summarize(tracer.spans, first)
    assert summary["lib.top"]["self_s"] == 10.0
    assert summary["lib.leaf"]["calls"] == 2


def test_disabled_calls_record_nothing_and_uninstall_restores():
    clock = Clock()
    lib, user = _modules(clock)
    originals = (lib.leaf, lib.top, lib.Box.__dict__["area"])
    tracer = _traced(clock, lib, user)
    assert lib.top() == "mid"
    assert tracer.spans == []
    assert user.leaf is not originals[0]
    tracer.uninstall()
    assert (lib.leaf, lib.top, lib.Box.__dict__["area"]) == originals
    assert user.leaf is originals[0]


def test_write_spans(tmp_path):
    clock = Clock()
    lib, user = _modules(clock)
    tracer = _traced(clock, lib, user)
    tracer.enabled = True
    lib.mid()
    path = tmp_path / "spans.tsv"
    tracer.write(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "name\tstart\tend\tparent\top\tcounts"
    assert lines[2].split("\t") == ["lib.leaf", "1.0", "3.0", "0", "None", "units=2"]
