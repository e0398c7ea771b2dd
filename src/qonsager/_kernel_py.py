"""Pure-Python rewrite kernel: one Kronecker-packed int per word.

Interface: a word is a code ``(1 << n) | bits`` with I = 1, J = 0, leftmost
letter in the highest bit; a polynomial is ``{code: {rho_degree:
{q_exponent: c}}}`` with nonzero int c.  The input dicts are only read.

The single rewrite rule is: the factor IIJ becomes ``[2]_q IJI - JII + rho J``
(the final term dropped in rho-zero mode).  One pass rewrites the leftmost
redex of every reducible word once, merging coefficients as it goes, so
cancellations between branches happen as early as possible.

Inside the kernel the input is split into lanes, and each lane is reduced
with every coefficient held as one Python int:

* Weight.  The rule preserves ``len(word) + 2 * rho_degree``, so words of
  one weight never meet words of another, and within a weight a word's rho
  degree follows from its length.  A lane holds one weight and never stores
  the rho degree.
* Exponent cluster.  The step to IJI moves a q-exponent by one and removes
  one I-before-J inversion; the steps to JII and J keep the exponent and
  remove at least two.  So an exponent drifts at most ``inversions(word)``
  from that of the input term it came from, and at most ``reach`` (the most
  inversions of any input word of the weight).  The sorted input exponents
  are cut wherever two neighbours are more than ``2 * reach`` apart, since
  the two sides can never meet, and each cluster is its own lane; the size
  of an int follows the spread of the input's exponents, not their absolute
  values.
* Parity.  Write ``d = e - inversions(word)`` for a term ``q^e word``.  The
  rule IIJ -> ``[2]_q IJI - JII + rho J`` maps ``(e, inversions)`` to
  ``(e +- 1, inv - 1)`` for IJI, ``(e, inv - 2)`` for JII and
  ``(e, inv - 2 * (1 + #J right of the redex))`` for J.  So d keeps its
  parity and never falls.  Each cluster is split by the parity of d, and
  the lane is ``(weight, parity, cluster)``.
* Layout.  With ``base`` the least d of the lane's input terms, every d the
  lane can reach is ``base + 2s`` for a slot ``s >= 0``.  The coefficient
  ``sum a_e q^e`` of a word is the int ``v = sum a_e 2^(B * s)`` with
  ``s = (e - inversions(word) - base) / 2``, that is, ``P(2^B)`` for
  ``P = sum a_e X^s``; the decode reads ``e = base + inversions(word) + 2s``.
  Only slots that can be nonzero are stored, and every rewrite is a left
  shift:

  ======  ==================  ===============================================
  branch  slot change         new int
  ======  ==================  ===============================================
  IJI     s and s + 1         ``(v << B) + v``
  JII     s + 1               ``-(v << B)``
  J       s + 1 + #J          ``v << B * (1 + i - popcount(w & (2^i - 1)))``
  ======  ==================  ===============================================

  where i is the bit of the redex's J, so the bits below it are the letters
  right of the redex.  A live word is one dict entry ``code: v``, and a
  merge is one int add.  A word that a merge leaves at 0 is dropped at the
  end of the pass unless a later product of the pass brings it back.

Exactness.  Python ints never wrap, so every ``v`` is exactly ``P(2^B)``
for the word's coefficient P on the run's schedule; what can fail is
reading P back.  A nonzero P with ``P(2^B) = 0`` has 2^B dividing its lowest
nonzero ``a_e``, and would be dropped as a zero; the balanced-digit decode
needs every ``|a_e|`` below ``2^(B-1)``.  The run carries no bound; once it
is over, each lane proves itself exact from its move memo.  Each word x gets
``bound[x]``: the sum of ``|c|`` over its input term, plus ``2 bound[u]``
for each memo word u whose IJI is x and ``bound[u]`` for each whose JII or J
is x.  A product's code is below its source's, so one walk of the memo in
descending code finishes each ``bound[u]`` before passing it on.  By
induction along the walk, ``bound[x]`` is at least the sum over the passes
of x's largest ``|a_e|`` while x is active (``[2]_q`` at most doubles it,
the other products keep it), and at least every running sum of a normal x,
which sums the same contributions; no factor for the number of passes
enters.  If the lane's largest bound is below ``2^(B-1)``, the run is
exact: the first true coefficient dropped as 0 would have all of its
contributions in the memo, so a bound of at least 2^B.  So every dropped
zero was a true zero, and the decode is exact.  A lane whose bound does not
fit runs again with B one more than the bound's bit length; B grows on each
rerun, so the loop ends.

Move memo.  A word's three products, their redex flags and the J shift
follow from its code and the lane's width alone, and a word is rewritten in
many passes (at r = 8, 90,926 steps over 4,833 distinct words), so each lane
computes them once per word and keeps them in a dict.  Each product is merged
straight into the next pass's active words or into the normal ones.

Lanes are run in lockstep so that ``steps``, ``passes`` and ``peak_words``
count distinct words, exactly as a single dict of words would.
"""

BACKEND = "python"


def _inversions(code):
    """Number of I-before-J pairs in the word."""
    count = ones = 0
    for i in range(code.bit_length() - 2, -1, -1):
        if (code >> i) & 1:
            ones += 1
        else:
            count += ones
    return count


def _reducible(w):
    """Nonzero iff the word has an IIJ factor.

    Bit i of ``(w >> 2) & (w >> 1) & ~w`` is set when bits i+2, i+1, i read
    IIJ; the mask drops the match that would use the sentinel as an I.  The
    top set bit is the leftmost redex.
    """
    n = w.bit_length()
    return (w >> 2) & (w >> 1) & ~w & ((1 << (n - 3)) - 1) if n > 3 else 0


def _lanes(terms):
    """Split the input into lanes ``(weight, base, width, {code: {slot: c}})``.

    Each exponent cluster of a weight is split by the parity of
    ``e - inversions(word)``.  A lane's base is its least
    ``e - inversions(word)``, and a term sits in slot
    ``(e - inversions(word) - base) / 2``.  Its starting width B is the bit
    length of its largest input bound, plus one bit per inversion of the
    weight's most inverted word, plus two.  On the rank-r relations the
    proof's slack, ``B - 1`` less the bit length of the largest proved bound,
    is 15, 19, 20 and 21 bits at r = 5, 8, 10 and 11 under the full rule and
    10, 9, 6 and 4 under the rho-zero rule, so the relations up to r = 11
    reduce in one run.
    """
    by_weight = {}
    for code, coeff in terms.items():
        n = code.bit_length() - 1
        inv = _inversions(code)
        for p, poly in coeff.items():
            for e, c in poly.items():
                by_weight.setdefault(n + 2 * p, []).append((e, code, c, inv))
    lanes = []
    for weight, items in sorted(by_weight.items()):
        reach = max(item[3] for item in items)
        items.sort()
        start = 0
        for i in range(1, len(items) + 1):
            if i < len(items) and items[i][0] - items[i - 1][0] <= 2 * reach:
                continue
            for parity in (0, 1):
                cluster = [item for item in items[start:i] if (item[0] - item[3]) & 1 == parity]
                if not cluster:
                    continue
                base = min(e - inv for e, _, _, inv in cluster)
                words = {}
                for e, code, c, inv in cluster:
                    words.setdefault(code, {})[(e - inv - base) >> 1] = c
                largest = max(sum(abs(c) for c in slots.values()) for slots in words.values())
                lanes.append((weight, base, largest.bit_length() + reach + 2, words))
            start = i
    return lanes


class _Lane:
    """One lane's live words during a run, each as ``code: v``.

    ``v`` holds the word's coefficient in slots of
    ``(e - inversions(word) - base) / 2``, so a rewrite only shifts left.
    ``active`` holds the words with a redex and ``normal`` the rest; the two
    never share a word.  ``words`` is the lane's input, kept for the proof.

    ``moves`` memoises each active word's rewrite, ``code: (IJI code, its
    redex flag, JII code, its flag, J code, its flag, J shift)``, since a word
    comes back pass after pass; it is also the graph the proof walks.  The J
    shift depends on the width and the J entries on the rule, so a lane is
    stepped under one rule only, and a widened rerun builds new lanes.
    """

    __slots__ = ("width", "words", "normal", "active", "moves")

    def __init__(self, words, width):
        self.width = width
        self.words = words
        self.normal = {}
        self.active = {}
        self.moves = {}
        for code, slots in words.items():
            v = sum(c << (width * s) for s, c in slots.items())
            (self.active if _reducible(code) else self.normal)[code] = v

    def _moves(self, w, rho_zero):
        """The memo entry of active word w."""
        i = _reducible(w).bit_length() - 1  # the bit of the J of the leftmost IIJ
        iji = w ^ (3 << i)
        jii = w ^ (5 << i)
        if rho_zero:
            return iji, _reducible(iji) > 0, jii, _reducible(jii) > 0, None, False, 0
        low = w & ((1 << i) - 1)  # the letters right of the redex
        j = ((w >> (i + 3)) << (i + 1)) | low
        # up one slot, plus one per J in low
        return (iji, _reducible(iji) > 0, jii, _reducible(jii) > 0,
                j, _reducible(j) > 0, self.width * (1 + i - low.bit_count()))

    def step(self, rho_zero):
        """One pass: rewrite every active word once, merging each product
        straight into the new active words or into the normal ones, then
        drop the words a merge left at 0 that are still 0."""
        width = self.width
        moves = self.moves
        into = (self.normal, {})
        zeros = []
        for w, v in self.active.items():
            m = moves.get(w)
            if m is None:
                m = moves[w] = self._moves(w, rho_zero)
            x, r, y, s, z, t, shift = m
            u = v << width
            d = into[r]
            e = d.get(x)  # IIJ -> IJI
            if e is None:
                d[x] = u + v
            else:
                d[x] = e = e + u + v
                if not e:
                    zeros.append((d, x))
            d = into[s]
            e = d.get(y)  # IIJ -> JII
            if e is None:
                d[y] = -u
            else:
                d[y] = e = e - u
                if not e:
                    zeros.append((d, y))
            if not rho_zero:
                d = into[t]
                e = d.get(z)  # IIJ -> J
                if e is None:
                    d[z] = v << shift
                else:
                    d[z] = e = e + (v << shift)
                    if not e:
                        zeros.append((d, z))
        for d, x in zeros:
            if d.get(x) == 0:  # not already dropped, nor brought back
                del d[x]
        self.active = into[1]

    def bounds(self):
        """Each word's proved bound, ``{code: bound}`` (see Exactness)."""
        bound = {code: sum(map(abs, slots.values())) for code, slots in self.words.items()}
        moves = self.moves
        for w in sorted(moves, reverse=True):  # every product is below its source
            b = bound[w]
            x, _, y, _, z, _, _ = moves[w]
            bound[x] = bound.get(x, 0) + 2 * b
            bound[y] = bound.get(y, 0) + b
            if z is not None:
                bound[z] = bound.get(z, 0) + b
        return bound

    def decode(self, weight, base, out):
        """Add the lane's normal words to out."""
        width = self.width
        half = 1 << (width - 1)
        mask = (1 << width) - 1
        for w, v in self.normal.items():
            p = (weight - w.bit_length() + 1) // 2
            poly = out.setdefault(w, {}).setdefault(p, {})
            e = base + _inversions(w)
            while v:
                d = v & mask
                if d >= half:
                    d -= mask + 1
                if d:
                    poly[e] = d
                v = (v - d) >> width
                e += 2


def _run(lanes, rho_zero):
    """Reduce all lanes in lockstep; returns (lane states, peak, steps, passes)."""
    states = [_Lane(words, width) for _, _, width, words in lanes]

    def distinct(dicts):
        # One lane's normal and active words are disjoint; lanes share words.
        return sum(map(len, dicts)) if len(states) == 1 else len(set().union(*dicts))

    peak = distinct([d for s in states for d in (s.normal, s.active)])
    steps = 0
    passes = 0
    running = [s for s in states if s.active]
    while running:
        passes += 1
        steps += distinct([s.active for s in running])
        for s in running:
            s.step(rho_zero)
        peak = max(peak, distinct([d for s in states for d in (s.normal, s.active)]))
        running = [s for s in states if s.active]
    return states, peak, steps, passes


def _reduce_lanes(lanes, rho_zero):
    """Reduce split input exactly, widening any lane whose proof failed.

    Returns (normal_terms, peak_words, steps, passes) as reduce_packed does.
    """
    lanes = list(lanes)
    while True:
        states, peak, steps, passes = _run(lanes, rho_zero)
        exact = True
        for i, ((weight, base, width, words), state) in enumerate(zip(lanes, states)):
            largest = max(state.bounds().values())
            if largest >> (width - 1):
                lanes[i] = (weight, base, largest.bit_length() + 1, words)
                exact = False
        if exact:
            normal = {}
            for (weight, base, _, _), state in zip(lanes, states):
                state.decode(weight, base, normal)
            return normal, peak, steps, passes


def reduce_packed(terms, rho_zero):
    """Reduce a polynomial to normal form.

    Returns (normal_terms, peak_words, steps, passes):
    peak_words is the largest number of distinct words alive after any pass,
    steps counts individual rewrites.
    """
    return _reduce_lanes(_lanes(terms), rho_zero)
