"""Congruence closure over terms.

This is the equality core of the theory solver: a union-find whose
elements are terms, extended with congruence propagation (if ``a = b``
then ``f(a) = f(b)``) and constructor reasoning for the container
operators used by representation types:

* injectivity — ``some(x) = some(y)`` entails ``x = y``; likewise for
  ``seq.cons`` and ``tuple``;
* distinctness — distinct constructors never alias (``some ≠ none``,
  ``seq.cons ≠ seq.empty``), and distinct literals never alias.

The closure reports conflicts through the :attr:`conflict` flag rather
than exceptions so the surrounding search can treat a conflicting
branch as refuted and move on.

The closure is *backtrackable*: :meth:`push` opens a frame and
:meth:`pop` undoes every mutation since the matching push via an
explicit trail (parent-pointer writes — including path compression —
interning, use-lists, signature entries). The DNF search uses this to
share the common-prefix closure between sibling branches instead of
rebuilding it from scratch per branch.

The closure also tells the structural rules of the theory branch which
terms need another look. :attr:`CongruenceClosure.touched` collects
every ``App`` interned and every ``App`` whose argument representatives
a merge changed. :attr:`CongruenceClosure.len_class` maps each
representative to the ``seq.len`` terms of its class, and a merge wakes
the ``seq.len`` terms of the class it merges away into
:attr:`CongruenceClosure.woken_lens`: literals always win the
representative choice, so that is the only way a length becomes equal
to ``0``. :attr:`CongruenceClosure.stamps` numbers terms in interning
order (the order of :meth:`known_terms`). :meth:`pop` restores all four.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.solver.terms import App, Term

_INJECTIVE = {"some", "seq.cons", "tuple"}
_CONSTRUCTOR_OPS = {"some", "none", "seq.cons", "seq.empty", "tuple"}

# Trail entry tags.
_T_PARENT = 0  # (tag, term, old_parent)      restore a parent pointer
_T_INTERN = 1  # (tag, term)                  un-intern a term
_T_USE_ADD = 2  # (tag, rep)                  pop one use of rep
_T_USE_POP = 3  # (tag, rep, old_list)        restore a popped use-list
_T_USE_EXT = 4  # (tag, rep, n)               drop n extended uses
_T_SIG = 5  # (tag, sig)                      drop a signature entry
_T_LEN_POP = 6  # (tag, rep, old_list)        restore a popped len_class entry
_T_LEN_EXT = 7  # (tag, rep, n)               drop n extended len_class terms


class CongruenceClosure:
    def __init__(self) -> None:
        self._parent: dict[Term, Term] = {}
        # Map from representative to the App terms that mention it.
        self._uses: dict[Term, list[App]] = {}
        # Signature table: canonical (op, arg reps) -> a known App term.
        self._sigs: dict[tuple, App] = {}
        self._diseqs: list[tuple[Term, Term, object]] = []
        self.conflict = False
        self.conflict_reason: Optional[str] = None
        # Equalities derived by the closure that the arithmetic layer
        # should also learn (pairs of representatives).
        self.pending_arith: list[tuple[Term, Term]] = []
        # Apps interned, or whose argument representatives changed,
        # since the structural rules last visited them.
        self.touched: set[App] = set()
        # App -> intern stamp; stamps grow in _parent's dict order.
        self.stamps: dict[App, int] = {}
        self.last_stamp = 0
        # Representative -> the seq.len terms of its class (roots
        # whose class has none have no entry).
        self.len_class: dict[Term, list[App]] = {}
        # seq.len terms whose class was merged away since the
        # structural rules last visited them.
        self.woken_lens: set[App] = set()
        # Backtracking trail: mutation records since the last push().
        self._trail: list[tuple] = []
        self._frames: list[tuple] = []

    # -- backtracking -------------------------------------------------------

    def push(self) -> None:
        """Open an undo frame; every later mutation is recorded."""
        self._frames.append(
            (
                len(self._trail),
                len(self._diseqs),
                self.conflict,
                self.conflict_reason,
                list(self.pending_arith),
                set(self.touched),
                set(self.woken_lens),
            )
        )

    def pop(self) -> None:
        """Undo every mutation since the matching :meth:`push`."""
        mark, n_diseqs, conflict, reason, pending, touched, woken = self._frames.pop()
        trail = self._trail
        parent = self._parent
        uses = self._uses
        stamps = self.stamps
        len_class = self.len_class
        while len(trail) > mark:
            e = trail.pop()
            tag = e[0]
            if tag == _T_PARENT:
                parent[e[1]] = e[2]
            elif tag == _T_INTERN:
                t = e[1]
                del parent[t]
                del uses[t]
                if stamps.pop(t, None) is not None and t.op == "seq.len":
                    del len_class[t]
            elif tag == _T_USE_ADD:
                uses[e[1]].pop()
            elif tag == _T_USE_POP:
                uses[e[1]] = e[2]
            elif tag == _T_USE_EXT:
                lst = uses[e[1]]
                del lst[len(lst) - e[2]:]
            elif tag == _T_LEN_POP:
                len_class[e[1]] = e[2]
            elif tag == _T_LEN_EXT:
                lst = len_class[e[1]]
                del lst[len(lst) - e[2]:]
                if not lst:
                    del len_class[e[1]]
            else:  # _T_SIG
                del self._sigs[e[1]]
        del self._diseqs[n_diseqs:]
        self.conflict = conflict
        self.conflict_reason = reason
        self.pending_arith = pending
        self.touched = touched
        self.woken_lens = woken

    # -- basic union-find ---------------------------------------------------

    def find(self, t: Term) -> Term:
        parent = self._parent
        if t not in parent:
            self._intern(t)
        # Identity tests: a root's parent is the root object itself.
        root = t
        while parent[root] is not root:
            root = parent[root]
        # Path compression (recorded on the trail inside a frame).
        if self._frames:
            trail = self._trail
            while parent[t] is not root:
                nxt = parent[t]
                trail.append((_T_PARENT, t, nxt))
                parent[t] = root
                t = nxt
        else:
            while parent[t] is not root:
                parent[t], t = root, parent[t]
        return root

    def _intern(self, t: Term) -> None:
        if t in self._parent:
            return
        self._parent[t] = t
        self._uses[t] = []
        trailing = bool(self._frames)
        if trailing:
            self._trail.append((_T_INTERN, t))
        if isinstance(t, App):
            self.last_stamp += 1
            self.stamps[t] = self.last_stamp
            self.touched.add(t)
            if t.op == "seq.len":
                self.len_class[t] = [t]
            for a in t.args:
                self._intern(a)
                rep = self.find(a)
                self._uses[rep].append(t)
                if trailing:
                    self._trail.append((_T_USE_ADD, rep))
            self._insert_sig(t)

    def _sig(self, t: App) -> tuple:
        return (t.op, tuple(self.find(a) for a in t.args))

    def _insert_sig(self, t: App) -> None:
        sig = self._sig(t)
        other = self._sigs.get(sig)
        if other is None:
            self._sigs[sig] = t
            if self._frames:
                self._trail.append((_T_SIG, sig))
        elif self.find(other) != self.find(t):
            self._merge(other, t)

    # -- merging ------------------------------------------------------------

    def union(self, a: Term, b: Term, reason: object = None) -> None:
        """Assert ``a = b`` and propagate to closure."""
        if self.conflict:
            return
        self._intern(a)
        self._intern(b)
        self._merge(a, b)
        if not self.conflict:
            self._check_diseqs()

    def _merge(self, a: Term, b: Term) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb or self.conflict:
            return
        if self._clash(ra, rb):
            self.conflict = True
            self.conflict_reason = f"{ra} = {rb}"
            return
        # Prefer keeping literals / constructors as representatives so
        # downstream layers see the most concrete form.
        if self._weight(rb) < self._weight(ra):
            ra, rb = rb, ra
        # ra becomes the representative.
        if self._frames:
            self._trail.append((_T_PARENT, rb, rb))
        self._parent[rb] = ra
        self.pending_arith.append((ra, rb))
        # rb's lengths now share ra's class, possibly with a literal.
        lens = self.len_class.pop(rb, None)
        if lens is not None:
            self.woken_lens.update(lens)
            self.len_class.setdefault(ra, []).extend(lens)
            if self._frames:
                self._trail.append((_T_LEN_POP, rb, lens))
                self._trail.append((_T_LEN_EXT, ra, len(lens)))
        # Injectivity: unify arguments of matching constructors.
        if (
            isinstance(ra, App)
            and isinstance(rb, App)
            and ra.op == rb.op
            and ra.op in _INJECTIVE
            and len(ra.args) == len(rb.args)
        ):
            for x, y in zip(ra.args, rb.args):
                self._merge(x, y)
                if self.conflict:
                    return
        # Congruence: re-canonicalise users of rb.
        uses = self._uses.pop(rb, [])
        if self._frames:
            self._trail.append((_T_USE_POP, rb, uses))
        self.touched.update(uses)
        for u in uses:
            self._insert_sig(u)
            if self.conflict:
                return
        self._uses.setdefault(ra, []).extend(uses)
        if self._frames and uses:
            self._trail.append((_T_USE_EXT, ra, len(uses)))

    def _weight(self, t: Term) -> int:
        if t.is_lit():
            return 0
        if isinstance(t, App) and t.op in _CONSTRUCTOR_OPS:
            return 1
        return 2

    def _clash(self, ra: Term, rb: Term) -> bool:
        """Would identifying these representatives be absurd?"""
        if ra.is_lit() and rb.is_lit() and ra != rb:
            return True
        if (
            isinstance(ra, App)
            and isinstance(rb, App)
            and ra.op in _CONSTRUCTOR_OPS
            and rb.op in _CONSTRUCTOR_OPS
            and (ra.op != rb.op or len(ra.args) != len(rb.args))
        ):
            return True
        return False

    # -- disequalities ------------------------------------------------------

    def assert_diseq(self, a: Term, b: Term, reason: object = None) -> None:
        if self.conflict:
            return
        self._intern(a)
        self._intern(b)
        self._diseqs.append((a, b, reason))
        self._check_diseqs()

    def _check_diseqs(self) -> None:
        for a, b, reason in self._diseqs:
            if self.find(a) == self.find(b):
                self.conflict = True
                self.conflict_reason = f"{a} != {b} violated"
                return

    # -- queries ------------------------------------------------------------

    def are_equal(self, a: Term, b: Term) -> bool:
        return self.find(a) == self.find(b)

    def known_terms(self) -> Iterable[Term]:
        return self._parent.keys()
