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
  right of the redex.  A merge is one int add.  A live word is one dict
  entry ``code: [v, bound]``, and a merge adds into both items in place.

Exactness.  Python ints never wrap, so every ``v`` is exactly ``P(2^B)``
for the word's true coefficient P; what can fail is reading P back.  Each
word carries a bound, the sum of the bounds of its contributions (``2b``
through ``[2]_q``, ``b`` otherwise; one more int add per merge), which is at
least every ``|a_e|``.  If P is nonzero and ``P(2^B) = 0``, 2^B divides the
lowest nonzero ``a_e``.  So the kernel checks three points: an input term
whose ``v`` is 0 is a failure (B starts above every input bound, so only a
narrower start can hit this); a word whose ``v`` is 0 at the end of a pass
is dropped only while its bound is below ``2^B``; and the final
balanced-digit decode needs every bound below ``2^(B-1)``.  A value can only
end a pass at 0 if some product of that pass left it there, by a merge that
gave 0 or as the product of a word whose value is 0, so only those words are
rechecked, once the pass is done; a word that a later product of the pass
brings back from 0 stays.  A lane that fails a check keeps its unconfirmed
zeros, which only adds words and raises bounds, and runs to the end; it is
then run again with B one more than the bit length of the largest bound
that failed, and no check of that second run can fail.

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
    weight's most inverted word, plus two.  The bound grows by less than that
    on the rank-r relations up to r = 10, so they reduce in one run.
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
    """One lane's live words during a run, each as ``code: [v, bound]``.

    ``v`` holds the word's coefficient in slots of
    ``(e - inversions(word) - base) / 2``, so a rewrite only shifts left.
    ``active`` holds the words with a redex and ``normal`` the rest; the two
    never share a word.  A merge adds into the pair in place, so one lookup
    serves both the coefficient int and its bound.

    ``moves`` memoises each active word's rewrite, ``code: (IJI code, its
    redex flag, JII code, its flag, J code, its flag, J shift)``, since a word
    comes back pass after pass.  The J shift depends on the width and the J
    entries on the rule, so a lane is stepped under one rule only, and a
    widened rerun builds new lanes.
    """

    __slots__ = ("width", "normal", "active", "bad", "moves")

    def __init__(self, words, width):
        self.width = width
        self.normal = {}
        self.active = {}
        self.bad = 0  # largest bound that failed a check; 0 while the run is exact
        self.moves = {}
        for code, slots in words.items():
            v = sum(c << (width * s) for s, c in slots.items())
            b = sum(abs(c) for c in slots.values())
            if not v and b > self.bad:  # a nonzero term that encodes to 0
                self.bad = b
            (self.active if _reducible(code) else self.normal)[code] = [v, b]

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
        recheck the words a product left at 0 (see Exactness above)."""
        width = self.width
        moves = self.moves
        normal = self.normal
        active = {}
        into = (normal, active)
        zeros = []
        for w, (v, b) in self.active.items():
            m = moves.get(w)
            if m is None:
                m = moves[w] = self._moves(w, rho_zero)
            x, r, y, s, z, t, shift = m
            if not v:  # every product is 0; under rho zero, z is None and never found
                zeros += ((into[r], x), (into[s], y), (into[t], z))
            u = v << width
            d = into[r]
            e = d.get(x)  # IIJ -> IJI
            if e is None:
                d[x] = [u + v, b << 1]
            else:
                e[0] += u + v
                e[1] += b << 1
                if not e[0]:
                    zeros.append((d, x))
            d = into[s]
            e = d.get(y)  # IIJ -> JII
            if e is None:
                d[y] = [-u, b]
            else:
                e[0] -= u
                e[1] += b
                if not e[0]:
                    zeros.append((d, y))
            if not rho_zero:
                d = into[t]
                e = d.get(z)  # IIJ -> J
                if e is None:
                    d[z] = [v << shift, b]
                else:
                    e[0] += v << shift
                    e[1] += b
                    if not e[0]:
                        zeros.append((d, z))
        for d, x in zeros:
            e = d.get(x)
            if e is None or e[0]:  # already dropped, or brought back
                continue
            if e[1] >> width:
                if e[1] > self.bad:  # a zero that may not be one
                    self.bad = e[1]
            else:
                del d[x]
        self.active = active

    def decode(self, weight, base, out):
        """Add the lane's normal words to out; False if inexact."""
        width = self.width
        half = 1 << (width - 1)
        for _, b in self.normal.values():
            if b >= half and b > self.bad:
                self.bad = b
        if self.bad:
            return False
        mask = (1 << width) - 1
        for w, (v, _) in self.normal.items():
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
        return True


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
    """Reduce split input exactly, widening any lane whose check failed.

    Returns (normal_terms, peak_words, steps, passes) as reduce_packed does.
    """
    lanes = list(lanes)
    while True:
        states, peak, steps, passes = _run(lanes, rho_zero)
        normal = {}
        exact = True
        for i, ((weight, base, _, words), state) in enumerate(zip(lanes, states)):
            if not state.decode(weight, base, normal):
                lanes[i] = (weight, base, state.bad.bit_length() + 1, words)
                exact = False
        if exact:
            return normal, peak, steps, passes


def reduce_packed(terms, rho_zero):
    """Reduce a polynomial to normal form.

    Returns (normal_terms, peak_words, steps, passes):
    peak_words is the largest number of distinct words alive after any pass,
    steps counts individual rewrites.
    """
    return _reduce_lanes(_lanes(terms), rho_zero)
