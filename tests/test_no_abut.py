"""No two registered blocks abut (DESIGN §2): an address — a block's
one-past-the-end address included — names one block, on every machine,
at every point a collection can start from."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import DEC5000, X86_64
from repro.difftest.corpus import load_corpus
from repro.vm.process import Process
from repro.vm.program import compile_program
from tests.conftest import ALL_ARCHS, assert_no_abut

ENTRIES = load_corpus()


@pytest.mark.parametrize("arch", ALL_ARCHS, ids=lambda a: a.name)
@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_at_every_poll_of_every_corpus_program(entry, arch):
    """Globals, heap and the stack blocks of every live frame — what a
    collection started at this poll would search."""
    proc = Process(compile_program(entry.source, poll_strategy="user"), arch)
    proc.start()
    polls = 0
    while True:
        proc.migration_pending, proc.migrate_after_polls = True, 1
        if proc.run().status != "poll":
            break
        polls += 1
        proc.register_stack_blocks()
        assert_no_abut(proc.msrlt)
        proc.msrlt.drop_stack_blocks()
    assert polls >= 1


#: (slot, bytes): an empty slot is malloc'ed; a live one is freed when
#: ``bytes`` is 0 and realloc'ed to ``bytes`` otherwise
OPS = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 72)), max_size=60)


@settings(max_examples=150, deadline=None)
@given(OPS, st.sampled_from([DEC5000, X86_64]))
def test_under_any_malloc_free_realloc_sequence(ops, arch):
    proc = Process(compile_program("int main() { return 0; }"), arch)
    proc.load()
    live = {}
    for slot, nbytes in ops:
        if slot not in live:
            live[slot] = proc.typed_malloc(nbytes, None)
        elif nbytes == 0:
            proc.typed_free(live.pop(slot))
        else:
            live[slot] = proc.typed_realloc(live[slot], nbytes, None)
        assert_no_abut(proc.msrlt)
        assert {b.addr for b in proc.msrlt.heap_blocks()} == set(live.values())
