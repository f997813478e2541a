"""Hybrid verification end-to-end (§2.1).

A *safe* client program uses ``LinkedList`` as a stack. The Creusot
half verifies the client against the Pearlite contracts of the API —
treating the unsafe implementation as axiomatised. The Gillian-Rust
half then discharges exactly those axioms against the real
pointer-manipulating implementation. Both halves interpret the same
specifications, which is the keystone of the hybrid approach.

Run with ``python examples/hybrid_client.py``. Flags / knobs:

* ``--verbose`` — append the profiling report (per-function phase
  times, slowest solver queries, tactic counts);
* ``--jobs N`` — fan the per-function verifications out over N
  forked workers;
* ``--verify-verdicts`` — after the run, adversarially cross-check its
  verdicts (concrete replay, mutation probes, differential
  re-verification) and print that report too; the exit status is 0
  only if both reports are ok;
* ``--list-sites`` — print every registered fault-injection site
  (valid first components of a ``REPRO_FAULT`` rule) and exit;
* ``REPRO_CACHE=1`` attaches the proof store;
  ``REPRO_DEADLINE=S`` gives each function S seconds.

README's "Environment knob reference" lists all five ``REPRO_*``
knobs.
"""

import sys

import repro.rustlib.linked_list as ll
from repro.adversary import cross_check
from repro.hybrid.pipeline import HybridVerifier
from repro.lang.builder import BodyBuilder
from repro.lang.types import UNIT, option_ty
from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
from repro.rustlib.linked_list import LIST, MUT_LIST, T, build_program
from repro.rustlib.specs import install_callee_specs


def build_stack_client():
    """fn client(x: T, y: T) -> Option<T> {
        let mut l = LinkedList::new();
        l.push_front(x);
        l.push_front(y);
        let top = l.pop_front();
        proof_assert!(top == Some(y));     // LIFO order
        top
    }"""
    fn = BodyBuilder(
        "client::stack_lifo",
        params=[("x", T), ("y", T)],
        ret=option_ty(T),
        generics=("T",),
        is_safe=True,
    )
    blocks = [fn.block() if i == 0 else fn.block(f"bb{i}") for i in range(5)]
    l = fn.local("l", LIST)
    blocks[0].call(l, "LinkedList::new", [], blocks[1])
    for i, arg in ((1, "x"), (2, "y")):
        r = fn.local(f"r{i}", MUT_LIST)
        blocks[i].assign(r, fn.ref("l", mutable=True))
        u = fn.local(f"u{i}", UNIT)
        blocks[i].call(
            u, "LinkedList::push_front", [fn.move(r), fn.copy(arg)], blocks[i + 1]
        )
    r3 = fn.local("r3", MUT_LIST)
    blocks[3].assign(r3, fn.ref("l", mutable=True))
    top = fn.local("top", option_ty(T))
    blocks[3].call(top, "LinkedList::pop_front", [fn.move(r3)], blocks[4])
    blocks[4].ghost_assert("match top { None => false, Some(v) => v == y }")
    blocks[4].assign(fn.ret_place, fn.copy("top"))
    blocks[4].ret()
    return fn.finish()


#: The run: the safe client and the unsafe API functions whose
#: contracts it assumes.
FUNCTIONS = (
    # The safe half: Creusot over pure models + API axioms.
    "client::stack_lifo",
    # The unsafe half: Gillian-Rust discharges the axioms.
    "LinkedList::new",
    "LinkedList::push_front_node",
    "LinkedList::pop_front_node",
    "LinkedList::front_mut",
)


def build_verifier(store=None):
    """The verifier over the client and the ``LinkedList`` API. Without
    ``store`` the proof store follows ``REPRO_CACHE``."""
    program, ownables = build_program()
    install_callee_specs(program, ownables)
    program.add_body(build_stack_client())
    return HybridVerifier(
        program,
        ownables,
        LINKED_LIST_CONTRACTS,
        manual_pure_pre=MANUAL_PURE_PRECONDITIONS,
        store=store,
    )


def verify(jobs=1, store=None):
    """Verify :data:`FUNCTIONS`; returns the ``HybridReport``."""
    return build_verifier(store).run(list(FUNCTIONS), jobs=jobs)


def verify_and_cross_check(jobs=1, store=None):
    """:func:`verify`, then the adversarial cross-check over its
    verdicts; returns ``(HybridReport, AdversaryReport)``. The
    cross-check runs after ``run`` returns, so the first report counts
    the verification's work alone."""
    hybrid = build_verifier(store)
    report = hybrid.run(list(FUNCTIONS), jobs=jobs)
    return report, cross_check(hybrid, report)


def main() -> int:
    argv = sys.argv[1:]
    if "--list-sites" in argv:
        from repro import faultinject

        for site, doc in sorted(faultinject.registered_sites().items()):
            print(f"{site:24s} {doc}")
        return 0
    verbose = "--verbose" in argv
    jobs = 1
    if "--jobs" in argv:
        jobs = int(argv[argv.index("--jobs") + 1])
    if "--verify-verdicts" not in argv:
        report = verify(jobs)
        print(report.render(verbose=verbose))
        return 0 if report.ok else 1
    report, adversary = verify_and_cross_check(jobs)
    print(report.render(verbose=verbose))
    print()
    print(adversary.render())
    return 0 if report.ok and adversary.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
