"""Pure-Python hot kernel for the ordering prescription.

Data layout (shared with the driver in reducer.py):

* a word is a packed code ``(1 << n) | bits`` with I = 1, J = 0, leftmost
  letter in the highest bit;
* a coefficient is a dict mapping ``(rho_degree << RHO_SHIFT) | (q_exponent
  + Q_OFFSET)`` to a nonzero Python int.  Coefficients entering the kernel
  are Laurent polynomials in q times powers of rho; the driver clears
  denominators beforehand.

The single rewrite rule is: the factor IIJ becomes ``[2]_q IJI - JII + rho J``
(the final term dropped in rho-zero mode).  One pass rewrites the leftmost
redex of every reducible word once, merging coefficients as it goes, so
cancellations between branches happen as early as possible.
"""

BACKEND = "python"

Q_OFFSET = 1 << 24
RHO_SHIFT = 26
RHO_STEP = 1 << RHO_SHIFT


def find_redex(code):
    """Position of the leftmost IIJ factor, or -1 if the word is normal."""
    n = code.bit_length() - 1
    for i in range(n - 2):
        if (code >> (n - 3 - i)) & 7 == 0b110:
            return i
    return -1


def rewrite_codes(code, pos):
    """Codes of the three replacement words for the redex at pos.

    Returns (IJI-word, JII-word, J-word); the first two keep the length,
    the last is shorter by two letters.
    """
    n = code.bit_length() - 1
    tail = n - 3 - pos
    bits = code ^ (1 << n)
    suffix = bits & ((1 << tail) - 1)
    head = (bits >> (tail + 3)) | (1 << pos)  # prefix with its own sentinel
    w_iji = (((head << 3) | 0b101) << tail) | suffix
    w_jii = (((head << 3) | 0b011) << tail) | suffix
    w_j = ((head << 1) << tail) | suffix
    return w_iji, w_jii, w_j


def _merge(normal, nxt, code, items):
    """Accumulate coefficient items onto a word, routing by redex status.

    Produced words never merge into the pass snapshot being iterated; a
    reducible word receiving contributions mid-pass is queued for the next
    pass instead.
    """
    tgt = normal.get(code)
    if tgt is None:
        tgt = nxt.get(code)
    if tgt is None:
        tgt = {}
        if find_redex(code) >= 0:
            nxt[code] = tgt
        else:
            normal[code] = tgt
    for k, v in items:
        n = tgt.get(k, 0) + v
        if n:
            tgt[k] = n
        else:
            del tgt[k]


def reduce_packed(terms, rho_zero):
    """Reduce a packed polynomial to normal form.

    Returns (normal_terms, peak_words, steps, passes):
    peak_words is the largest number of distinct words alive after any pass,
    steps counts individual rewrites.
    """
    normal = {}
    active = {}
    for code, coeff in terms.items():
        if coeff:
            (active if find_redex(code) >= 0 else normal)[code] = dict(coeff)
    peak = len(normal) + len(active)
    steps = 0
    passes = 0
    while active:
        passes += 1
        nxt = {}
        for code, coeff in active.items():
            if not coeff:
                continue
            pos = find_redex(code)
            w_iji, w_jii, w_j = rewrite_codes(code, pos)
            steps += 1
            # [2]_q * coeff: shift the q-exponent by +1 and -1.
            two = {}
            for k, v in coeff.items():
                n = two.get(k + 1, 0) + v
                if n:
                    two[k + 1] = n
                else:
                    del two[k + 1]
                n = two.get(k - 1, 0) + v
                if n:
                    two[k - 1] = n
                else:
                    del two[k - 1]
            _merge(normal, nxt, w_iji, two.items())
            _merge(normal, nxt, w_jii, [(k, -v) for k, v in coeff.items()])
            if not rho_zero:
                _merge(normal, nxt, w_j, [(k + RHO_STEP, v) for k, v in coeff.items()])
        active = {c: t for c, t in nxt.items() if t}
        normal = {c: t for c, t in normal.items() if t}
        live = len(normal) + len(active)
        if live > peak:
            peak = live
    return normal, peak, steps, passes
