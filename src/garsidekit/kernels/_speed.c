/*
 * Compiled kernels: the six normal-form operations of ``_pure``, written
 * against the CPython C API.
 *
 * Only ``word_to_nf``, ``multiply_nf``, ``invert_nf``, ``nf_lengths``,
 * ``peel_lengths`` and ``expand_level`` are compiled: the beam solver, the
 * ranking and the oracle spend their kernel time there, and nowhere else.
 * ``peel_lengths`` scores a batch of products p * target by length without
 * building them, for the beam step and the ranking. ``expand_level`` is
 * one level of the oracle's breadth-first search: it multiplies packed
 * normal forms by the signed atoms and stores the new ones in the caller's
 * dict. Given its ``orbits`` flag it takes one canonical step per child
 * first: it packs the least of the child's images under tau^i (conjugation
 * by delta^i), which share its delta power and need no renormalizing, so a
 * ball holds one state per tau-orbit. The lattice operations on single
 * simples (the band meet, complements, left-weighting) live here only as
 * static helpers of those six; their Python entry points are the pure
 * twin's.
 *
 * Every function here has the same name, positional signature and result
 * as its namesake in ``_pure.py``, which is the reference; the test suite
 * drives both on the same inputs. Permutations stay ``bytes`` at the
 * boundary and become C arrays inside: each kernel copies the factors it
 * reads into one factor list (``flist``) and left-weights it in place:
 * ``normalize`` for a product of two normal forms, ``prepend_simple`` for a
 * word or an inverse, grown from the back. Where the pure twin hands back
 * an input object unchanged (a trivial twist, the factors a product leaves
 * alone), so does this one, so callers that keep many normal forms share
 * their factors.
 *
 * The algorithms are the pure twin's, on C arrays. The band meet, which
 * walks the blocks of one argument upward, is exact only on band simples,
 * so every band factor is checked at the boundary.
 *
 * Every entry point checks its arguments before it touches memory: the
 * kind is 0 or 1, a strand count lies in 0..256 (``core.MAX_STRANDS``, the
 * most a byte can label), every factor it reads is ``bytes`` holding a
 * simple (a permutation of range(n), and for the band structure a band
 * simple: ``simple_ok``), every atom index is in range, and a packed
 * normal form (``_pure.pack_nf``) has 8 + r*n bytes, a delta power in range
 * and simples for factors. A bad argument
 * raises ``TypeError``, ``ValueError`` or ``OverflowError``. Integers must
 * be ``int``, so reading one runs no Python code, and nothing here calls
 * back into the pure twin.
 *
 * ``bkl_atom_index`` and the ``KIND_*`` constants are not hot; they complete
 * this module's interface for code that loads the twin directly (perfbench
 * cross-checks the four lengths through it).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

#define KIND_ARTIN 0
#define KIND_BKL 1
#define MAXN 256
/* Bound on delta powers, so that no sum or product of lengths overflows. */
#define MAX_POWER (1LL << 40)

typedef unsigned char u8;

/* ------------------------------------------------------------------------
 * Argument checks */

static int
nargs_ok(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)",
                 name, want, nargs);
    return 0;
}

static int
long_arg(PyObject *o, long long lo, long long hi, long long *out)
{
    long long v;
    if (!PyLong_Check(o)) {
        PyErr_Format(PyExc_TypeError, "expected int, got %.100s", Py_TYPE(o)->tp_name);
        return 0;
    }
    v = PyLong_AsLongLong(o);
    if (v == -1 && PyErr_Occurred())
        return 0;
    if (v < lo || v > hi) {
        PyErr_Format(PyExc_ValueError, "%lld outside %lld..%lld", v, lo, hi);
        return 0;
    }
    *out = v;
    return 1;
}

static int
kind_arg(PyObject *o, int *kind)
{
    long long v;
    if (!long_arg(o, KIND_ARTIN, KIND_BKL, &v))
        return 0;
    *kind = (int)v;
    return 1;
}

static int
strands_arg(PyObject *o, int *n)
{
    long long v;
    if (!long_arg(o, 0, MAXN, &v))
        return 0;
    *n = (int)v;
    return 1;
}

static int
power_arg(PyObject *o, long long *k)
{
    return long_arg(o, -MAX_POWER, MAX_POWER, k);
}

/* 1 if the n bytes at ``p`` are a permutation of range(n), else 0 with an
 * exception set. */
static int
perm_ok(const u8 *p, int n)
{
    u8 seen[MAXN];
    int i;
    /* Clear only the n slots in use: gcc 12 flags memset(seen, 0, n) with a
     * false -Wstringop-overflow once inlined, and clearing all MAXN bytes
     * made the normal-form kernels about 1.5x slower. */
    for (i = 0; i < n; i++)
        seen[i] = 0;
    for (i = 0; i < n; i++) {
        if (p[i] >= n || seen[p[i]]) {
            PyErr_Format(PyExc_ValueError, "not a permutation of range(%d)", n);
            return 0;
        }
        seen[p[i]] = 1;
    }
    return 1;
}

/* Whether the permutation ``p`` is a band simple. A band simple maps each
 * slot to the next larger slot of its block and the largest back to the
 * smallest, and its blocks do not cross. One ascending scan checks that,
 * keeping each block that is open at ``i`` on a stack with the slot it goes
 * on to and its smallest slot: blocks nest, so the innermost, on top, goes
 * on to the nearest slot. */
static int
is_band_simple(const u8 *p, int n)
{
    u8 next[MAXN], low[MAXN];
    int i, lo, depth = 0;
    for (i = 0; i < n; i++) {
        lo = depth > 0 && next[depth - 1] == i ? low[--depth] : i;
        if (p[i] > i) {
            if (depth > 0 && next[depth - 1] < p[i])
                return 0;
            next[depth] = p[i];
            low[depth++] = (u8)lo;
        } else if (p[i] != lo) {
            return 0;
        }
    }
    return 1;
}

/* 1 if the permutation ``p`` is a band simple, else 0 with an exception
 * set. */
static int
band_ok(const u8 *p, int n)
{
    if (is_band_simple(p, n))
        return 1;
    PyErr_Format(PyExc_ValueError, "not a band simple of %d strands", n);
    return 0;
}

/* 1 if the n bytes at ``p`` are a simple of the structure, else 0 with an
 * exception set: every permutation is an Artin simple. */
static int
simple_ok(int kind, const u8 *p, int n)
{
    return perm_ok(p, n) && (kind == KIND_ARTIN || band_ok(p, n));
}

/* The bytes of ``o`` if it holds a simple of the structure on n strands;
 * else NULL with an exception set. */
static const u8 *
simple_arg(int kind, PyObject *o, int n)
{
    const u8 *p;
    if (!PyBytes_Check(o)) {
        PyErr_Format(PyExc_TypeError, "a permutation must be bytes, not %.100s",
                     Py_TYPE(o)->tp_name);
        return NULL;
    }
    if (PyBytes_GET_SIZE(o) != n) {
        PyErr_Format(PyExc_ValueError, "permutation of length %zd, expected %d",
                     PyBytes_GET_SIZE(o), n);
        return NULL;
    }
    p = (const u8 *)PyBytes_AS_STRING(o);
    return simple_ok(kind, p, n) ? p : NULL;
}

/* ------------------------------------------------------------------------
 * Permutations as C arrays */

static u8
delta_at(int kind, int n, int i)
{
    return (u8)(kind == KIND_ARTIN ? n - 1 - i : i + 1 == n ? 0 : i + 1);
}

static void
fill_delta(int kind, u8 *out, int n)
{
    int i;
    for (i = 0; i < n; i++)
        out[i] = delta_at(kind, n, i);
}

static void
fill_invert(const u8 *p, u8 *out, int n)
{
    int i;
    for (i = 0; i < n; i++)
        out[p[i]] = (u8)i;
}

static int
is_identity(const u8 *p, int n)
{
    int i;
    for (i = 0; i < n; i++)
        if (p[i] != i)
            return 0;
    return 1;
}

static int
artin_inversions(const u8 *p, int n)
{
    int i, j, count = 0;
    for (i = 0; i < n; i++)
        for (j = i + 1; j < n; j++)
            count += p[i] > p[j];
    return count;
}

/* A band simple's length is n minus its block count: every slot but the
 * largest of its block maps upward. */
static int
simple_length(int kind, const u8 *p, int n)
{
    int i, up = 0;
    if (kind == KIND_ARTIN)
        return artin_inversions(p, n);
    for (i = 0; i < n; i++)
        up += p[i] > i;
    return up;
}

static long long
delta_length(int kind, int n)
{
    return kind == KIND_ARTIN ? n * (n - 1) / 2 : n - 1;
}

/* ``p`` conjugated by delta^k into ``out``; returns 0, leaving ``out``
 * untouched, when the twist is trivial. Inline: the oracle twists every
 * factor of every parent once per move, and gcc 12 left it out of line
 * once the band rotation grew, which cost about 5% on small Artin balls. */
static inline int
twist(int kind, const u8 *p, u8 *out, int n, long long k)
{
    int i, j, v;
    if (kind == KIND_ARTIN) {
        if (k % 2 == 0)
            return 0;
        for (i = 0; i < n; i++)
            out[i] = (u8)(n - 1 - p[n - 1 - i]);
        return 1;
    }
    if (n == 0 || (k %= n) == 0)
        return 0;
    if (k < 0)
        k += n;
    /* Rotate every slot and value by k, wrapping with a subtraction. */
    for (i = 0; i < n; i++) {
        j = i + (int)k;
        v = p[i] + (int)k;
        out[j < n ? j : j - n] = (u8)(v < n ? v : v - n);
    }
    return 1;
}

/* The simple ``c`` with ``s * c = delta``. */
static void
fill_right_complement(int kind, const u8 *s, u8 *out, int n)
{
    u8 si[MAXN];
    int i;
    fill_invert(s, si, n);
    for (i = 0; i < n; i++)
        out[i] = delta_at(kind, n, si[i]);
}

/* The simple ``c`` with ``c * s = delta``. */
static void
fill_left_complement(int kind, const u8 *s, u8 *out, int n)
{
    u8 si[MAXN];
    int i;
    fill_invert(s, si, n);
    for (i = 0; i < n; i++)
        out[i] = si[delta_at(kind, n, i)];
}

static void
fill_atom(int kind, int n, int a, u8 *out)
{
    int i, t = 1, s;
    for (i = 0; i < n; i++)
        out[i] = (u8)i;
    if (kind == KIND_ARTIN) {
        out[a] = (u8)(a + 1);
        out[a + 1] = (u8)a;
        return;
    }
    while ((t + 1) * t / 2 <= a)
        t++;
    s = a - t * (t - 1) / 2;
    out[t] = (u8)s;
    out[s] = (u8)t;
}

/* Put the letter of atom ``a`` and the run's sign in front of the simple run
 * ``run`` of ``size`` letters, in place, if the run's atoms still multiply
 * to a simple; returns whether it did. An Artin run holds the permutation
 * of its atoms in word order, whatever its sign. The new atom swaps slots a
 * and a + 1, and the atoms stay a permutation braid iff the two strands
 * starting there have not crossed yet. A band run holds its positive
 * simple: a1 ... ak for a positive run, ak ... a1 for a negative one, whose
 * inverse the run is. The new product must be a band simple of one more
 * atom. */
static int
grow_run(int kind, int n, u8 *run, int size, int a, int positive)
{
    u8 atom[MAXN], grown[MAXN], x;
    int i;
    if (kind == KIND_ARTIN) {
        if (run[a] > run[a + 1])
            return 0;
        x = run[a], run[a] = run[a + 1], run[a + 1] = x;
        return 1;
    }
    fill_atom(kind, n, a, atom);
    for (i = 0; i < n; i++)
        grown[i] = positive ? run[atom[i]] : atom[run[i]];
    if (!is_band_simple(grown, n) || simple_length(kind, grown, n) != size + 1)
        return 0;
    memcpy(run, grown, n);
    return 1;
}

/* Meet of two band simples into ``out``; returns 1 when it is the
 * identity. The meet is the common refinement of the two partitions, and
 * its blocks are walked upward. A band simple maps each slot to the next
 * larger slot of its block and the largest back to the smallest, so the
 * slot after ``i`` in its meet block is the first slot after it on the
 * upward walk along ``s`` that shares its block of ``t``; the walk ends
 * without one when it wraps or passes that block's largest slot. */
static int
meet_into(const u8 *s, const u8 *t, u8 *out, int n)
{
    u8 top[MAXN], done[MAXN];
    int i, j, at, end, identity = 1;
    /* top[i]: the largest slot of i's block of t. */
    for (i = n - 1; i >= 0; i--) {
        top[i] = t[i] > i ? top[t[i]] : (u8)i;
        done[i] = 0;
    }
    /* An ascending scan meets each block first at its smallest slot. */
    for (i = 0; i < n; i++) {
        if (done[i])
            continue;
        end = top[i];
        for (at = i;; at = j) {
            done[at] = 1;
            for (j = s[at]; j > at && j < end && top[j] != end; j = s[j])
                ;
            if (j <= at || j > end)
                break;
            out[at] = (u8)j;
        }
        out[at] = (u8)i;
        identity &= at == i;
    }
    return identity;
}

/* Left-weight the pair (s, p) into (s2, p2), keeping the product; returns 1
 * when something moved, else leaves s2 and p2 untouched. */
static int
slide_into(int kind, const u8 *s, const u8 *p, u8 *s2, u8 *p2, int n)
{
    u8 rc[MAXN], b[MAXN], bi[MAXN], si[MAXN], x;
    int i, moved = 0;
    if (kind == KIND_BKL) {
        fill_right_complement(kind, s, rc, n);
        if (meet_into(rc, p, b, n))
            return 0;
        fill_invert(b, bi, n);
        for (i = 0; i < n; i++) {
            s2[i] = b[s[i]];
            p2[i] = p[bi[i]];
        }
        return 1;
    }
    /* Transfer every atom that starts p and can extend s. A transfer at i
     * changes only the pairs at i - 1 and i + 1, so the scan steps back
     * one slot after it; any transfer order ends at the same pair. */
    memcpy(s2, s, n);
    memcpy(p2, p, n);
    fill_invert(s, si, n);
    for (i = 0; i < n - 1;) {
        if (p2[i] > p2[i + 1] && si[i] < si[i + 1]) {
            x = p2[i], p2[i] = p2[i + 1], p2[i + 1] = x;
            s2[si[i]] = (u8)(i + 1);
            s2[si[i + 1]] = (u8)i;
            x = si[i], si[i] = si[i + 1], si[i + 1] = x;
            moved = 1;
            if (i > 0)
                i--;
        } else {
            i++;
        }
    }
    return moved;
}

/* ------------------------------------------------------------------------
 * Factor lists on C arrays */

/* ``r`` factors of ``n`` bytes each, back to back in ``perm``. ``from[i]``
 * is the index of the input object that slot ``i`` still equals, or -1 once
 * the slot holds a permutation of its own, so a product can hand back the
 * factors it leaves untouched. */
typedef struct {
    u8 *perm;
    Py_ssize_t *from;
    Py_ssize_t r, cap;
} flist;

#define SLOT(fs, i, n) ((fs)->perm + (i) * (Py_ssize_t)(n))

static int
flist_reserve(flist *fs, Py_ssize_t cap, int n)
{
    u8 *perm;
    Py_ssize_t *from;
    if (cap < 1)
        cap = 1;
    if (cap <= fs->cap)
        return 1;
    if (cap > PY_SSIZE_T_MAX / (MAXN + (Py_ssize_t)sizeof *from)) {
        PyErr_NoMemory();
        return 0;
    }
    if ((perm = PyMem_Realloc(fs->perm, (size_t)(cap * n) + 1)) == NULL) {
        PyErr_NoMemory();
        return 0;
    }
    fs->perm = perm;
    if ((from = PyMem_Realloc(fs->from, (size_t)cap * sizeof *from)) == NULL) {
        PyErr_NoMemory();
        return 0;
    }
    fs->from = from;
    fs->cap = cap;
    return 1;
}

static void
flist_free(flist *fs)
{
    PyMem_Free(fs->perm);
    PyMem_Free(fs->from);
}

/* Append ``p``, tagged ``from``; the caller has reserved the slot, which
 * ``p`` may already occupy. */
static void
flist_push(flist *fs, const u8 *p, int n, Py_ssize_t from)
{
    memmove(SLOT(fs, fs->r, n), p, n);
    fs->from[fs->r++] = from;
}

static void
flist_drop(flist *fs, Py_ssize_t at, Py_ssize_t count, int n)
{
    Py_ssize_t rest = fs->r - at - count;
    if (count == 0)
        return;
    memmove(SLOT(fs, at, n), SLOT(fs, at + count, n), (size_t)(rest * n));
    memmove(fs->from + at, fs->from + at + count, (size_t)rest * sizeof *fs->from);
    fs->r -= count;
}

/* Check and append every factor of the tuple ``seq``, conjugated by
 * delta^k. A factor the twist leaves alone is tagged ``tag`` plus its
 * index, or -1 when ``tag`` is -1; a twisted one is tagged -1. */
static int
push_factors(int kind, int n, flist *fs, PyObject *seq, long long k, Py_ssize_t tag)
{
    u8 buf[MAXN];
    const u8 *p;
    Py_ssize_t i, r = PyTuple_GET_SIZE(seq);
    if (!flist_reserve(fs, fs->r + r, n))
        return 0;
    for (i = 0; i < r; i++) {
        if ((p = simple_arg(kind, PyTuple_GET_ITEM(seq, i), n)) == NULL)
            return 0;
        if (twist(kind, p, buf, n, k))
            flist_push(fs, buf, n, -1);
        else
            flist_push(fs, p, n, tag < 0 ? -1 : tag + i);
    }
    return 1;
}

/* Left-multiply the left-weighted suffix fs[i+1:] by fs[i]: left-weight
 * the pair at i and carry its right part on to the next pair, until a pair
 * is already left-weighted (the rest stays as it is) or nothing is left to
 * carry. By the domino rule of Garside theory, fs[i:] is then left-weighted
 * save for deltas at its front. Returns 0 when the first pair was already
 * left-weighted. Inline: with a second caller, ``prepend_simple``, gcc 12
 * left it out of line, which cost the oracle's ``normalize`` about 1%. */
static inline int
absorb(int kind, int n, flist *fs, Py_ssize_t i)
{
    u8 s2[MAXN], p2[MAXN];
    u8 *s;
    Py_ssize_t first = i;
    for (; i < fs->r - 1; i++) {
        s = SLOT(fs, i, n);
        if (!slide_into(kind, s, s + n, s2, p2, n))
            break;
        memcpy(s, s2, n);
        fs->from[i] = -1;
        if (is_identity(p2, n)) {
            flist_drop(fs, i + 1, 1, n);
            return 1;
        }
        memcpy(s + n, p2, n);
        fs->from[i + 1] = -1;
    }
    return i > first;
}

/* Left-weight ``fs`` in place and return the number of deltas stripped off
 * its front. ``fs[:last+1]`` and ``fs[last+1:]`` must each be left-weighted.
 * The factors from ``last`` down are absorbed into the suffix one at a
 * time, until one leaves its right neighbour alone: the pairs left of it
 * are untouched, hence still left-weighted. Deltas migrate to the front;
 * identity factors left at the back are dropped. Every product goes
 * through it: ``multiply_nf``, ``peel_lengths`` and ``expand_level``. */
static Py_ssize_t
normalize(int kind, int n, flist *fs, Py_ssize_t last)
{
    u8 dlt[MAXN];
    Py_ssize_t lead = 0;
    while (last >= 0 && absorb(kind, n, fs, last))
        last--;
    fill_delta(kind, dlt, n);
    while (lead < fs->r && memcmp(SLOT(fs, lead, n), dlt, n) == 0)
        lead++;
    flist_drop(fs, 0, lead, n);
    while (fs->r > 0 && is_identity(SLOT(fs, fs->r - 1, n), n))
        fs->r--;
    return lead;
}

/* Left-multiply the normal form delta^*k * fs[*head:] by the simple ``p``,
 * in place, writing its new first factor into the free slot before
 * ``*head``. p * delta^k = delta^k * tau^k(p), so ``p`` is twisted by *k.
 * An identity is dropped and a delta only raises *k; any other simple goes
 * in front and one rightward domino (``absorb``) left-weights the whole.
 * The infimum rises by at most one per simple, so at most one delta then
 * leads, and it is stripped off. This is the one way a normal form is
 * grown from a factor sequence: from the back, one domino per factor. */
static void
prepend_simple(int kind, int n, flist *fs, Py_ssize_t *head, const u8 *p, long long *k)
{
    u8 buf[MAXN], dlt[MAXN];
    if (twist(kind, p, buf, n, *k))
        p = buf;
    if (is_identity(p, n))
        return;
    fill_delta(kind, dlt, n);
    if (memcmp(p, dlt, n) == 0) {
        ++*k;
        return;
    }
    memcpy(SLOT(fs, --*head, n), p, n);
    fs->from[*head] = -1;
    absorb(kind, n, fs, *head);
    if (memcmp(SLOT(fs, *head, n), dlt, n) == 0) {
        ++*head;
        ++*k;
    }
}

/* ------------------------------------------------------------------------
 * Python objects */

static PyObject *
bytes_of(const u8 *buf, int n)
{
    return PyBytes_FromStringAndSize((const char *)buf, n);
}

/* A new 2-tuple that steals both references; NULL if either is NULL. */
static PyObject *
pair(PyObject *a, PyObject *b)
{
    PyObject *t = NULL;
    if (a != NULL && b != NULL && (t = PyTuple_New(2)) != NULL) {
        PyTuple_SET_ITEM(t, 0, a);
        PyTuple_SET_ITEM(t, 1, b);
        return t;
    }
    Py_XDECREF(a);
    Py_XDECREF(b);
    return NULL;
}

/* The normal form ``(k, factors of fs)``. A slot tagged j is the input
 * object it still equals: item j of ``left``, then of ``right`` (either
 * may be NULL when no slot is tagged). */
static PyObject *
nf_object(int n, long long k, const flist *fs, PyObject *left, PyObject *right)
{
    Py_ssize_t i, j, r1 = left == NULL ? 0 : PyTuple_GET_SIZE(left);
    PyObject *t = PyTuple_New(fs->r), *x;
    if (t == NULL)
        return NULL;
    for (i = 0; i < fs->r; i++) {
        j = fs->from[i];
        if (j < 0)
            x = bytes_of(SLOT(fs, i, n), n);
        else
            x = Py_NewRef(j < r1 ? PyTuple_GET_ITEM(left, j) : PyTuple_GET_ITEM(right, j - r1));
        if (x == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, x);
    }
    return pair(PyLong_FromLongLong(k), t);
}

/* ------------------------------------------------------------------------
 * Entry points */

/* One (atom, sign) letter; only the sign's side of zero matters. */
static int
letter_arg(PyObject *o, long long atoms, int *atom, int *positive)
{
    PyObject *t = PySequence_Tuple(o);
    long long a, sign;
    int ok = 0;
    if (t == NULL)
        return 0;
    if (PyTuple_GET_SIZE(t) != 2)
        PyErr_SetString(PyExc_ValueError, "a letter is an (atom, sign) pair");
    else if (long_arg(PyTuple_GET_ITEM(t, 0), 0, atoms - 1, &a)
             && long_arg(PyTuple_GET_ITEM(t, 1), LLONG_MIN, LLONG_MAX, &sign)) {
        *atom = (int)a;
        *positive = sign > 0;
        ok = 1;
    }
    Py_DECREF(t);
    return ok;
}

/* Prepend the simple run ``run`` (``grow_run``) of the given sign to the
 * normal form delta^*k * fs[*head:]. A negative run is delta^-1 times the
 * left complement of ak ... a1, which is delta * (ak ... a1)^-1; an Artin
 * run holds that inverse, so the complement is the run read from the back.
 * Its delta^-1 lies left of the complement. */
static void
put_run(int kind, int n, flist *fs, Py_ssize_t *head, const u8 *run, int positive,
        long long *k)
{
    u8 lc[MAXN];
    int i;
    if (positive) {
        prepend_simple(kind, n, fs, head, run, k);
        return;
    }
    if (kind == KIND_ARTIN)
        for (i = 0; i < n; i++)
            lc[i] = run[n - 1 - i];
    else
        fill_left_complement(kind, run, lc, n);
    prepend_simple(kind, n, fs, head, lc, k);
    --*k;
}

static PyObject *
py_word_to_nf(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    u8 run[MAXN];
    PyObject *seq, *out = NULL;
    flist fs = {NULL, NULL, 0, 0};
    long long k = 0, atoms;
    Py_ssize_t i, head;
    int kind, n, a, positive, sign = 0, size = 0;
    if (!nargs_ok("word_to_nf", nargs, 3) || !kind_arg(args[0], &kind)
        || !strands_arg(args[1], &n) || !(seq = PySequence_Tuple(args[2])))
        return NULL;
    atoms = kind == KIND_ARTIN ? n - 1 : n * (n - 1) / 2;
    /* At most one factor per letter; the normal form fills the slots from
     * the back. */
    fs.r = head = PyTuple_GET_SIZE(seq);
    if (!flist_reserve(&fs, fs.r, n))
        goto done;
    /* The word is cut, from the back, into simple runs: maximal runs of
     * same-sign letters whose atoms multiply to a simple (``grow_run``). A
     * positive run is that simple; a negative run a1^-1 ... ak^-1 is
     * (ak ... a1)^-1 = delta^-1 * c with c * ak ... a1 = delta, one delta for
     * the whole run. Each run is prepended as soon as it is closed, twisted
     * by the delta power to its right: the normal form is grown from the
     * back, one domino per factor. */
    for (i = PyTuple_GET_SIZE(seq) - 1; i >= 0; i--) {
        if (!letter_arg(PyTuple_GET_ITEM(seq, i), atoms, &a, &positive))
            goto done;
        if (size > 0 && positive == sign && grow_run(kind, n, run, size, a, positive)) {
            size++;
            continue;
        }
        if (size > 0)
            put_run(kind, n, &fs, &head, run, sign, &k);
        fill_atom(kind, n, a, run);
        sign = positive;
        size = 1;
    }
    if (size > 0)
        put_run(kind, n, &fs, &head, run, sign, &k);
    flist_drop(&fs, 0, head, n);
    out = nf_object(n, k, &fs, NULL, NULL);
done:
    flist_free(&fs);
    Py_DECREF(seq);
    return out;
}

static PyObject *
py_multiply_nf(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *f1, *f2, *out = NULL;
    flist fs = {NULL, NULL, 0, 0};
    long long k1, k2;
    Py_ssize_t r1;
    int kind, n;
    if (!nargs_ok("multiply_nf", nargs, 6) || !kind_arg(args[0], &kind)
        || !strands_arg(args[1], &n) || !power_arg(args[2], &k1)
        || !power_arg(args[4], &k2) || !(f1 = PySequence_Tuple(args[3])))
        return NULL;
    if ((f2 = PySequence_Tuple(args[5])) == NULL) {
        Py_DECREF(f1);
        return NULL;
    }
    r1 = PyTuple_GET_SIZE(f1);
    if (r1 == 0) {
        /* Nothing to normalize; the right factors are still checked. */
        if (push_factors(kind, n, &fs, f2, 0, -1))
            out = pair(PyLong_FromLongLong(k1 + k2), Py_NewRef(f2));
        goto done;
    }
    /* The right delta power commutes through the left factors, twisting
     * them; twisting keeps them left-weighted, so they are absorbed into
     * the right form one at a time, the last first. */
    if (push_factors(kind, n, &fs, f1, k2, 0) && push_factors(kind, n, &fs, f2, 0, r1)) {
        if (fs.r > r1)
            k2 += normalize(kind, n, &fs, r1 - 1);
        out = nf_object(n, k1 + k2, &fs, f1, f2);
    }
done:
    flist_free(&fs);
    Py_DECREF(f1);
    Py_DECREF(f2);
    return out;
}

static PyObject *
py_invert_nf(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    u8 lc[MAXN];
    PyObject *seq, *out = NULL;
    flist fs = {NULL, NULL, 0, 0};
    const u8 *p;
    long long k;
    Py_ssize_t r, j, head;
    int kind, n;
    if (!nargs_ok("invert_nf", nargs, 4) || !kind_arg(args[0], &kind)
        || !strands_arg(args[1], &n) || !power_arg(args[2], &k)
        || !(seq = PySequence_Tuple(args[3])))
        return NULL;
    fs.r = head = r = PyTuple_GET_SIZE(seq);
    if (!flist_reserve(&fs, r, n))
        goto done;
    /* (delta^k f1 ... fr)^-1 = delta^-1 c_r ... delta^-1 c_1 delta^-k with
     * c_j the left complement of f_j, so the complements are prepended from
     * c_1 on, each followed by one delta^-1. The reversed, twisted
     * complements of a normal form are already left-weighted, so on a
     * normal form each prepend ends after one slide that moves nothing;
     * that slide is what keeps a factor sequence that is not left-weighted
     * correct, so it must stay. */
    k = -k;
    for (j = 0; j < r; j++) {
        if ((p = simple_arg(kind, PyTuple_GET_ITEM(seq, j), n)) == NULL)
            goto done;
        fill_left_complement(kind, p, lc, n);
        prepend_simple(kind, n, &fs, &head, lc, &k);
        k--;
    }
    flist_drop(&fs, 0, head, n);
    out = nf_object(n, k, &fs, NULL, NULL);
done:
    flist_free(&fs);
    Py_DECREF(seq);
    return out;
}

static PyObject *
py_nf_lengths(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *seq;
    const u8 *p;
    long long k, len, total = 0, head = 0, greedy;
    Py_ssize_t i;
    int kind, n;
    if (!nargs_ok("nf_lengths", nargs, 4) || !kind_arg(args[0], &kind)
        || !strands_arg(args[1], &n) || !power_arg(args[2], &k)
        || !(seq = PySequence_Tuple(args[3])))
        return NULL;
    /* The rational length drops two copies of the leading factor lengths
     * that cancel against negative delta powers. */
    for (i = 0; i < PyTuple_GET_SIZE(seq); i++) {
        if ((p = simple_arg(kind, PyTuple_GET_ITEM(seq, i), n)) == NULL) {
            Py_DECREF(seq);
            return NULL;
        }
        len = simple_length(kind, p, n);
        total += len;
        if (i < -k)
            head += len;
    }
    Py_DECREF(seq);
    greedy = (k < 0 ? -k : k) * delta_length(kind, n) + total;
    return pair(PyLong_FromLongLong(greedy), PyLong_FromLongLong(greedy - 2 * head));
}

/* Check the normal form ``o``, a (k, factors) pair, and append its factors
 * to ``fs`` conjugated by delta^k2; its delta power goes to ``k``. */
static int
nf_arg(int kind, int n, flist *fs, PyObject *o, long long k2, long long *k)
{
    PyObject *t = PySequence_Tuple(o), *f;
    int ok = 0;
    if (t == NULL)
        return 0;
    if (PyTuple_GET_SIZE(t) != 2)
        PyErr_SetString(PyExc_ValueError, "a normal form is a (k, factors) pair");
    else if (power_arg(PyTuple_GET_ITEM(t, 0), k)
             && (f = PySequence_Tuple(PyTuple_GET_ITEM(t, 1))) != NULL) {
        ok = push_factors(kind, n, fs, f, k2, -1);
        Py_DECREF(f);
    }
    Py_DECREF(t);
    return ok;
}

/* The length of p * (k, factors) for each normal form p in ``peels``, read
 * off the product on C arrays: nothing is built per product. The target is
 * checked once and its factor lengths are computed once; a product slot
 * that still holds target factor j reuses that length. */
static PyObject *
py_peel_lengths(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *peels = NULL, *target = NULL, *scores = NULL, *score, *out = NULL;
    flist tgt = {NULL, NULL, 0, 0}, fs = {NULL, NULL, 0, 0};
    long long k, k1, rational, len, total, head, greedy, *tlen = NULL;
    Py_ssize_t i, j, r1;
    int kind, n;
    if (!nargs_ok("peel_lengths", nargs, 6) || !kind_arg(args[0], &kind)
        || !strands_arg(args[1], &n) || !power_arg(args[3], &k)
        || !long_arg(args[5], 0, 1, &rational) || !(peels = PySequence_Tuple(args[2]))
        || !(target = PySequence_Tuple(args[4])) || !push_factors(kind, n, &tgt, target, 0, 0))
        goto done;
    if ((tlen = PyMem_Malloc((size_t)(tgt.r + 1) * sizeof *tlen)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (j = 0; j < tgt.r; j++)
        tlen[j] = simple_length(kind, SLOT(&tgt, j, n), n);
    if ((scores = PyTuple_New(PyTuple_GET_SIZE(peels))) == NULL)
        goto done;
    for (i = 0; i < PyTuple_GET_SIZE(peels); i++) {
        /* The peel's factors twisted by delta^k, then the target's,
         * normalized as in multiply_nf. */
        fs.r = 0;
        if (!nf_arg(kind, n, &fs, PyTuple_GET_ITEM(peels, i), k, &k1)
            || !flist_reserve(&fs, fs.r + tgt.r, n))
            goto done;
        r1 = fs.r;
        memcpy(SLOT(&fs, r1, n), tgt.perm, (size_t)(tgt.r * n));
        memcpy(fs.from + r1, tgt.from, (size_t)tgt.r * sizeof *fs.from);
        fs.r += tgt.r;
        k1 += k;
        if (r1 > 0 && tgt.r > 0)
            k1 += normalize(kind, n, &fs, r1 - 1);
        total = head = 0;
        for (j = 0; j < fs.r; j++) {
            len = fs.from[j] >= 0 ? tlen[fs.from[j]] : simple_length(kind, SLOT(&fs, j, n), n);
            total += len;
            if (j < -k1)
                head += len;
        }
        greedy = (k1 < 0 ? -k1 : k1) * delta_length(kind, n) + total;
        if ((score = PyLong_FromLongLong(rational ? greedy - 2 * head : greedy)) == NULL)
            goto done;
        PyTuple_SET_ITEM(scores, i, score);
    }
    out = Py_NewRef(scores);
done:
    PyMem_Free(tlen);
    flist_free(&tgt);
    flist_free(&fs);
    Py_XDECREF(scores);
    Py_XDECREF(peels);
    Py_XDECREF(target);
    return out;
}

/* Bytes in a packed normal form before its factors: the delta power, signed
 * and big-endian, as ``_pure.pack_nf`` writes it. */
#define POWER_BYTES 8

/* Check the packed normal form ``o``; its delta power goes to ``k``, its
 * ``r`` factors stay in place at ``f``. */
static int
blob_arg(int kind, int n, PyObject *o, long long *k, const u8 **f, Py_ssize_t *r)
{
    const u8 *p;
    unsigned long long u = 0;
    Py_ssize_t size, i;
    if (!PyBytes_Check(o)) {
        PyErr_Format(PyExc_TypeError, "a packed normal form must be bytes, not %.100s",
                     Py_TYPE(o)->tp_name);
        return 0;
    }
    size = PyBytes_GET_SIZE(o) - POWER_BYTES;
    if (size < 0 || (n > 0 ? size % n : size) != 0) {
        PyErr_Format(PyExc_ValueError, "a packed normal form of %zd bytes, not 8 + r*%d",
                     PyBytes_GET_SIZE(o), n);
        return 0;
    }
    p = (const u8 *)PyBytes_AS_STRING(o);
    for (i = 0; i < POWER_BYTES; i++)
        u = u << 8 | p[i];
    *k = (long long)u;
    if (*k < -MAX_POWER || *k > MAX_POWER) {
        PyErr_Format(PyExc_ValueError, "%lld outside %lld..%lld", *k, -MAX_POWER, MAX_POWER);
        return 0;
    }
    *f = p + POWER_BYTES;
    *r = n > 0 ? size / n : 0;
    for (i = 0; i < *r; i++)
        if (!simple_ok(kind, *f + i * n, n))
            return 0;
    return 1;
}

/* The packed normal form of ``(k, the r factors at f)``. */
static PyObject *
blob_object(int n, long long k, const u8 *f, Py_ssize_t r)
{
    PyObject *o = PyBytes_FromStringAndSize(NULL, POWER_BYTES + r * n);
    u8 *p;
    int i;
    if (o == NULL)
        return NULL;
    p = (u8 *)PyBytes_AS_STRING(o);
    for (i = POWER_BYTES - 1; i >= 0; i--, k = (long long)((unsigned long long)k >> 8))
        p[i] = (u8)k;
    memcpy(p + POWER_BYTES, f, (size_t)(r * n));
    return o;
}

/* The least, as packed bytes, of the images tau^i of the r factors at
 * ``f``: i runs over 0..1 for Artin and 0..n-1 for band, and no image needs
 * renormalizing, because tau keeps a sequence left-weighted. ``img`` holds
 * 2*r*n bytes; each image is built in whichever half does not hold the
 * least so far, and abandoned at its first factor that compares greater. */
static const u8 *
least_image(int kind, int n, const u8 *f, Py_ssize_t r, u8 *img)
{
    const u8 *least = f;
    u8 *cur;
    Py_ssize_t j;
    int i, cmp, period = kind == KIND_ARTIN ? 2 : n;
    for (i = 1; i < period; i++) {
        cur = least == img ? img + r * n : img;
        for (j = 0, cmp = 0; j < r * n && cmp <= 0; j += n) {
            twist(kind, f + j, cur + j, n, i);
            if (cmp == 0)
                cmp = memcmp(cur + j, least + j, n);
        }
        if (cmp < 0)
            least = cur;
    }
    return least;
}

/* One breadth-first step: each child parent * move of a packed parent in
 * ``frontier`` that is not a key of ``table`` is stored there with the
 * value ``level`` and listed in the result. Stops after the first parent
 * whose children bring the table above ``max_nodes``. Each product is
 * normalized as in multiply_nf, on the parent's bytes. With ``orbits`` set,
 * each child is replaced by the least image of its tau-orbit
 * (``least_image``) before the table lookup. */
static PyObject *
py_expand_level(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *frontier = NULL, *moves = NULL, *table, *grown = NULL, *child, *out = NULL;
    /* ``tw`` holds the two image buffers of the canonical step. */
    flist mv = {NULL, NULL, 0, 0}, fs = {NULL, NULL, 0, 0}, tw = {NULL, NULL, 0, 0};
    u8 buf[MAXN];
    const u8 *pf, *f;
    long long level, max_nodes, orbits = 0, k1, k, *mk = NULL;
    Py_ssize_t i, j, r1, count, *mstart = NULL;
    int kind, n, found;
    if (!nargs_ok("expand_level", nargs, nargs < 8 ? 7 : 8) || !kind_arg(args[0], &kind)
        || !strands_arg(args[1], &n) || !long_arg(args[5], 0, LLONG_MAX, &level)
        || !long_arg(args[6], 0, LLONG_MAX, &max_nodes)
        || (nargs == 8 && !long_arg(args[7], 0, 1, &orbits)))
        return NULL;
    table = args[4];
    if (!PyDict_CheckExact(table)) {
        PyErr_Format(PyExc_TypeError, "table must be a dict, not %.100s", Py_TYPE(table)->tp_name);
        return NULL;
    }
    /* Tuples of their own, so that no code run by a dict lookup can change
     * what is being read. */
    if ((frontier = PySequence_Tuple(args[2])) == NULL
        || (moves = PySequence_Tuple(args[3])) == NULL)
        goto done;
    count = PyTuple_GET_SIZE(moves);
    mk = PyMem_Malloc((size_t)(count + 1) * sizeof *mk);
    mstart = PyMem_Malloc((size_t)(count + 1) * sizeof *mstart);
    if (mk == NULL || mstart == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* The moves' factors back to back in ``mv``: move j's run from
     * mstart[j] to mstart[j + 1]. */
    if (!flist_reserve(&mv, count, n))
        goto done;
    for (j = 0; j < count; j++) {
        mstart[j] = mv.r;
        if (!nf_arg(kind, n, &mv, PyTuple_GET_ITEM(moves, j), 0, &mk[j]))
            goto done;
    }
    mstart[count] = mv.r;
    if ((grown = PyList_New(0)) == NULL)
        goto done;
    for (i = 0; i < PyTuple_GET_SIZE(frontier); i++) {
        if (!blob_arg(kind, n, PyTuple_GET_ITEM(frontier, i), &k1, &pf, &r1)
            || !flist_reserve(&fs, r1 + mv.r, n)
            || (orbits && !flist_reserve(&tw, 2 * fs.cap, n)))
            goto done;
        for (j = 0; j < count; j++) {
            /* The move's delta power commutes through the parent's
             * factors, twisting them; then the seam is normalized. */
            fs.r = 0;
            for (f = pf; f < pf + r1 * n; f += n)
                flist_push(&fs, twist(kind, f, buf, n, mk[j]) ? buf : f, n, -1);
            memcpy(SLOT(&fs, r1, n), SLOT(&mv, mstart[j], n),
                   (size_t)((mstart[j + 1] - mstart[j]) * n));
            fs.r += mstart[j + 1] - mstart[j];
            k = k1 + mk[j];
            if (r1 > 0 && fs.r > r1)
                k += normalize(kind, n, &fs, r1 - 1);
            f = orbits ? least_image(kind, n, fs.perm, fs.r, tw.perm) : fs.perm;
            if ((child = blob_object(n, k, f, fs.r)) == NULL)
                goto done;
            found = PyDict_Contains(table, child);
            if (found < 0
                || (found == 0
                    && (PyDict_SetItem(table, child, args[5]) < 0
                        || PyList_Append(grown, child) < 0))) {
                Py_DECREF(child);
                goto done;
            }
            Py_DECREF(child);
        }
        if (PyDict_GET_SIZE(table) > max_nodes)
            break;
    }
    out = Py_NewRef(grown);
done:
    PyMem_Free(mk);
    PyMem_Free(mstart);
    flist_free(&mv);
    flist_free(&fs);
    flist_free(&tw);
    Py_XDECREF(grown);
    Py_XDECREF(frontier);
    Py_XDECREF(moves);
    return out;
}

static PyObject *
py_bkl_atom_index(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    long long t, s;
    if (!nargs_ok("bkl_atom_index", nargs, 2) || !long_arg(args[0], 1, MAXN - 1, &t)
        || !long_arg(args[1], 0, t - 1, &s))
        return NULL;
    return PyLong_FromLongLong(t * (t - 1) / 2 + s);
}

/* ------------------------------------------------------------------------
 * Module */

#define KERNEL(name, doc) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, PyDoc_STR(doc)}

static PyMethodDef speed_methods[] = {
    KERNEL(word_to_nf, "word_to_nf(kind, n, letters, /)\n--\n\n"
                       "Normal form of a word given as (atom index, sign) pairs."),
    KERNEL(multiply_nf, "multiply_nf(kind, n, k1, f1, k2, f2, /)\n--\n\n"
                        "Product of two normal forms; only the seam is renormalized."),
    KERNEL(invert_nf, "invert_nf(kind, n, k, f, /)\n--\n\n"
                      "Inverse of a normal form via twisted left complements."),
    KERNEL(nf_lengths, "nf_lengths(kind, n, k, f, /)\n--\n\n"
                       "Greedy and rational atom lengths of a normal form."),
    KERNEL(peel_lengths, "peel_lengths(kind, n, peels, k, f, rational, /)\n--\n\n"
                         "Greedy or rational length of p * (k, f) for each normal form p."),
    KERNEL(expand_level, "expand_level(kind, n, frontier, moves, table, level, max_nodes, orbits=0, /)\n--\n\n"
                         "One breadth-first step over packed normal forms, optionally keyed by tau-orbit."),
    KERNEL(bkl_atom_index, "bkl_atom_index(t, s, /)\n--\n\n"
                           "Flat index of the band atom joining slots s < t."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef speed_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "garsidekit.kernels._speed",
    .m_doc = "Compiled kernels: the hot twin of garsidekit.kernels._pure.",
    .m_size = -1,
    .m_methods = speed_methods,
};

PyMODINIT_FUNC
PyInit__speed(void)
{
    PyObject *m = PyModule_Create(&speed_module);
    if (m != NULL && (PyModule_AddIntConstant(m, "KIND_ARTIN", KIND_ARTIN) < 0
                      || PyModule_AddIntConstant(m, "KIND_BKL", KIND_BKL) < 0))
        Py_CLEAR(m);
    return m;
}
