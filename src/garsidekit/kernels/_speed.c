/*
 * Compiled kernels: the four normal-form operations of ``_pure``, written
 * against the CPython C API.
 *
 * Only ``word_to_nf``, ``multiply_nf``, ``invert_nf`` and ``nf_lengths`` are
 * compiled: the beam solver, the ranking and the oracle spend their kernel
 * time there, and nowhere else. The lattice operations on single simples
 * (meet, complements, left-weighting) live here only as static helpers of
 * those four; their Python entry points are the pure twin's.
 *
 * Every function here has the same name, positional signature and result
 * as its namesake in ``_pure.py``, which is the reference; the test suite
 * drives both on the same inputs. Permutations stay ``bytes`` at the
 * boundary and become C arrays inside. Where the pure twin hands back an
 * input object unchanged (a trivial twist, the factors a product leaves
 * alone), so does this one, so callers that keep many normal forms share
 * their factors.
 *
 * Every entry point checks its arguments before it touches memory: the
 * kind is 0 or 1, a strand count lies in 0..256 (``core.MAX_STRANDS``, the
 * most a byte can label), every factor it reads is ``bytes`` holding a
 * permutation of range(n), and every atom index is in range. A bad argument
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

/* The bytes of ``o`` if it holds a permutation of range(n); else NULL with
 * an exception set. */
static const u8 *
perm_arg(PyObject *o, int n)
{
    u8 seen[MAXN];
    const u8 *p;
    int i;
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
    /* Clear only the n slots in use: gcc 12 flags memset(seen, 0, n) with a
     * false -Wstringop-overflow once inlined, and clearing all MAXN bytes
     * made the normal-form kernels about 1.5x slower. */
    for (i = 0; i < n; i++)
        seen[i] = 0;
    for (i = 0; i < n; i++) {
        if (p[i] >= n || seen[p[i]]) {
            PyErr_Format(PyExc_ValueError, "not a permutation of range(%d)", n);
            return NULL;
        }
        seen[p[i]] = 1;
    }
    return p;
}

/* ------------------------------------------------------------------------
 * Permutations as C arrays */

static u8
delta_at(int kind, int n, int i)
{
    return (u8)(kind == KIND_ARTIN ? n - 1 - i : (i + 1) % n);
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

/* Label each slot with the minimum of its cycle; an ascending scan reaches
 * every cycle at its minimum. */
static void
cycle_labels(const u8 *p, u8 *labels, int n)
{
    u8 seen[MAXN];
    int i, j;
    for (i = 0; i < n; i++) /* not memset: see perm_arg */
        seen[i] = 0;
    for (i = 0; i < n; i++)
        for (j = i; !seen[j]; j = p[j]) {
            seen[j] = 1;
            labels[j] = (u8)i;
        }
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

static int
simple_length(int kind, const u8 *p, int n)
{
    u8 labels[MAXN];
    int i, blocks = 0;
    if (kind == KIND_ARTIN)
        return artin_inversions(p, n);
    cycle_labels(p, labels, n);
    for (i = 0; i < n; i++)
        blocks += labels[i] == i;
    return n - blocks;
}

/* ``p`` conjugated by delta^k into ``out``; returns 0, leaving ``out``
 * untouched, when the twist is trivial. */
static int
twist(int kind, const u8 *p, u8 *out, int n, long long k)
{
    int i;
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
    for (i = 0; i < n; i++)
        out[(i + k) % n] = (u8)((p[i] + k) % n);
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

/* Meet into ``out``; returns 1 when the meet is the identity. */
static int
meet_into(int kind, const u8 *s, const u8 *t, u8 *out, int n)
{
    u8 u[MAXN], v[MAXN], mi[MAXN], ls[MAXN], lt[MAXN], last[MAXN], x;
    int i, j, moved, ident = 1;
    if (kind == KIND_BKL) {
        /* Common refinement of the two partitions: the slots sharing both
         * cycle labels form one upward cycle, named by its first slot j.
         * Each slot closes the cycle until a later one joins it. */
        cycle_labels(s, ls, n);
        cycle_labels(t, lt, n);
        for (i = 0; i < n; i++) {
            for (j = 0; ls[j] != ls[i] || lt[j] != lt[i]; j++)
                ;
            out[i] = (u8)j;
            if (j < i)
                out[last[j]] = (u8)i;
            last[j] = (u8)i;
        }
        return is_identity(out, n);
    }
    for (i = 0; i < n; i++) {
        u[i] = s[i];
        v[i] = t[i];
        out[i] = mi[i] = (u8)i;
    }
    /* Greedy common-descent peel; any peel order reaches the gcd. */
    do {
        moved = 0;
        for (i = 0; i < n - 1; i++) {
            if (u[i] > u[i + 1] && v[i] > v[i + 1]) {
                x = u[i], u[i] = u[i + 1], u[i + 1] = x;
                x = v[i], v[i] = v[i + 1], v[i + 1] = x;
                out[mi[i]] = (u8)(i + 1);
                out[mi[i + 1]] = (u8)i;
                x = mi[i], mi[i] = mi[i + 1], mi[i + 1] = x;
                moved = 1;
                ident = 0;
            }
        }
    } while (moved);
    return ident;
}

/* Left-weight the pair (s, p) into (s2, p2), keeping the product; returns 1
 * when something moved, else leaves s2 and p2 untouched. */
static int
slide_into(int kind, const u8 *s, const u8 *p, u8 *s2, u8 *p2, int n)
{
    u8 rc[MAXN], b[MAXN], bi[MAXN], si[MAXN], x;
    int i, moved = 0, scanning = 1;
    if (kind == KIND_BKL) {
        fill_right_complement(kind, s, rc, n);
        if (meet_into(kind, rc, p, b, n))
            return 0;
        fill_invert(b, bi, n);
        for (i = 0; i < n; i++) {
            s2[i] = b[s[i]];
            p2[i] = p[bi[i]];
        }
        return 1;
    }
    /* Transfer every atom that starts p and can extend s. */
    memcpy(s2, s, n);
    memcpy(p2, p, n);
    fill_invert(s, si, n);
    while (scanning) {
        scanning = 0;
        for (i = 0; i < n - 1; i++) {
            if (p2[i] > p2[i + 1] && si[i] < si[i + 1]) {
                x = p2[i], p2[i] = p2[i + 1], p2[i + 1] = x;
                s2[si[i]] = (u8)(i + 1);
                s2[si[i + 1]] = (u8)i;
                x = si[i], si[i] = si[i + 1], si[i + 1] = x;
                moved = scanning = 1;
            }
        }
    }
    return moved;
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

/* The factor ``o`` conjugated by delta^k: ``o`` itself when that is trivial. */
static PyObject *
twisted(int kind, PyObject *o, int n, long long k)
{
    u8 buf[MAXN];
    const u8 *p = perm_arg(o, n);
    if (p == NULL)
        return NULL;
    if (!twist(kind, p, buf, n, k))
        return Py_NewRef(o);
    return bytes_of(buf, n);
}

static int
append_factor(PyObject *fs, const u8 *p, int n)
{
    PyObject *o = bytes_of(p, n);
    int rc;
    if (o == NULL)
        return -1;
    rc = PyList_Append(fs, o);
    Py_DECREF(o);
    return rc;
}

static int
set_factor(PyObject *fs, Py_ssize_t i, const u8 *p, int n)
{
    PyObject *o = bytes_of(p, n);
    return o == NULL ? -1 : PyList_SetItem(fs, i, o);
}

/* Left-weight the factor list ``fs`` in place and return the number of
 * deltas stripped off its front, or -1 on error.
 *
 * Pairs strictly left of ``i`` must already be left-weighted and
 * ``fs[virgin:]`` must be an untouched left-weighted suffix, so the scan may
 * stop at a stable pair inside that suffix. Identity factors are dropped
 * as they surface; deltas migrate to the front. */
static Py_ssize_t
normalize(int kind, int n, PyObject *fs, Py_ssize_t i, Py_ssize_t virgin)
{
    u8 s2[MAXN], p2[MAXN], dlt[MAXN];
    const u8 *s, *p;
    Py_ssize_t lead = 0, size;
    if (i < 0)
        i = 0;
    while (i < PyList_GET_SIZE(fs) - 1) {
        s = perm_arg(PyList_GET_ITEM(fs, i), n);
        p = s == NULL ? NULL : perm_arg(PyList_GET_ITEM(fs, i + 1), n);
        if (p == NULL)
            return -1;
        if (!slide_into(kind, s, p, s2, p2, n)) {
            if (i + 1 >= virgin)
                break;
            i++;
            continue;
        }
        if (set_factor(fs, i, s2, n) < 0)
            return -1;
        if (is_identity(p2, n)) {
            if (PyList_SetSlice(fs, i + 1, i + 2, NULL) < 0)
                return -1;
            virgin = virgin - 1 > i + 1 ? virgin - 1 : i + 1;
        }
        else {
            if (set_factor(fs, i + 1, p2, n) < 0)
                return -1;
            virgin = virgin > i + 2 ? virgin : i + 2;
        }
        if (i > 0)
            i--;
    }
    fill_delta(kind, dlt, n);
    for (; lead < PyList_GET_SIZE(fs); lead++) {
        if ((s = perm_arg(PyList_GET_ITEM(fs, lead), n)) == NULL)
            return -1;
        if (memcmp(s, dlt, n) != 0)
            break;
    }
    if (lead > 0 && PyList_SetSlice(fs, 0, lead, NULL) < 0)
        return -1;
    while ((size = PyList_GET_SIZE(fs)) > 0) {
        if ((s = perm_arg(PyList_GET_ITEM(fs, size - 1), n)) == NULL)
            return -1;
        if (!is_identity(s, n))
            break;
        if (PyList_SetSlice(fs, size - 1, size, NULL) < 0)
            return -1;
    }
    return lead;
}

/* The normal form ``(k + stripped deltas, tuple(fs))`` after normalizing
 * ``fs`` from ``scan_from``; consumes ``fs``. */
static PyObject *
finish_nf(int kind, int n, long long k, PyObject *fs, Py_ssize_t scan_from,
          Py_ssize_t virgin)
{
    Py_ssize_t lead = normalize(kind, n, fs, scan_from, virgin);
    PyObject *out = NULL;
    if (lead >= 0)
        out = pair(PyLong_FromLongLong(k + lead), PyList_AsTuple(fs));
    Py_DECREF(fs);
    return out;
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

static PyObject *
py_word_to_nf(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    u8 q[MAXN], atom[MAXN], buf[MAXN];
    PyObject *seq, *fs;
    const u8 *f;
    long long shift = 0;
    Py_ssize_t i;
    int kind, n, a, positive;
    long long atoms;
    if (!nargs_ok("word_to_nf", nargs, 3) || !kind_arg(args[0], &kind)
        || !strands_arg(args[1], &n) || !(seq = PySequence_Tuple(args[2])))
        return NULL;
    atoms = kind == KIND_ARTIN ? n - 1 : n * (n - 1) / 2;
    if ((fs = PyList_New(0)) == NULL)
        goto fail;
    /* A negative letter a^-1 is delta^-1 * c with c * a = delta. Sweeping
     * the deltas to the front twists each factor by the power of delta
     * that passes through it: the count of negative letters to its right. */
    for (i = PyTuple_GET_SIZE(seq) - 1; i >= 0; i--) {
        if (!letter_arg(PyTuple_GET_ITEM(seq, i), atoms, &a, &positive))
            goto fail;
        fill_atom(kind, n, a, atom);
        if (positive)
            memcpy(q, atom, n);
        else
            fill_left_complement(kind, atom, q, n);
        f = twist(kind, q, buf, n, shift) ? buf : q;
        if (!is_identity(f, n) && append_factor(fs, f, n) < 0)
            goto fail;
        shift -= !positive;
    }
    Py_DECREF(seq);
    if (PyList_Reverse(fs) < 0) {
        Py_DECREF(fs);
        return NULL;
    }
    return finish_nf(kind, n, shift, fs, 0, PyList_GET_SIZE(fs));
fail:
    Py_DECREF(seq);
    Py_XDECREF(fs);
    return NULL;
}

static PyObject *
py_multiply_nf(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *f1, *f2, *fs = NULL, *x, *out = NULL;
    long long k1, k2;
    Py_ssize_t r1, r2, i;
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
    r2 = PyTuple_GET_SIZE(f2);
    if (r1 == 0) {
        out = pair(PyLong_FromLongLong(k1 + k2), Py_NewRef(f2));
        goto done;
    }
    /* The right delta power commutes through the left factors, twisting
     * them; twisting keeps them left-weighted, so only the seam needs
     * normalizing. */
    if ((fs = PyList_New(r1 + r2)) == NULL)
        goto done;
    for (i = 0; i < r1; i++) {
        if ((x = twisted(kind, PyTuple_GET_ITEM(f1, i), n, k2)) == NULL)
            goto done;
        PyList_SET_ITEM(fs, i, x);
    }
    for (i = 0; i < r2; i++)
        PyList_SET_ITEM(fs, r1 + i, Py_NewRef(PyTuple_GET_ITEM(f2, i)));
    if (r2 == 0)
        out = pair(PyLong_FromLongLong(k1 + k2), PyList_AsTuple(fs));
    else {
        out = finish_nf(kind, n, k1 + k2, fs, r1 - 1, r1);
        fs = NULL;
    }
done:
    Py_XDECREF(fs);
    Py_DECREF(f1);
    Py_DECREF(f2);
    return out;
}

static PyObject *
py_invert_nf(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    u8 lc[MAXN], buf[MAXN];
    PyObject *seq, *fs;
    const u8 *p, *g;
    long long k;
    Py_ssize_t r, j;
    int kind, n;
    if (!nargs_ok("invert_nf", nargs, 4) || !kind_arg(args[0], &kind)
        || !strands_arg(args[1], &n) || !power_arg(args[2], &k)
        || !(seq = PySequence_Tuple(args[3])))
        return NULL;
    r = PyTuple_GET_SIZE(seq);
    if ((fs = PyList_New(0)) == NULL)
        goto fail;
    /* Each reversed factor contributes delta^-1 * its left complement, and
     * sweeping the deltas frontward twists the complements. */
    for (j = r; j >= 1; j--) {
        if ((p = perm_arg(PyTuple_GET_ITEM(seq, j - 1), n)) == NULL)
            goto fail;
        fill_left_complement(kind, p, lc, n);
        g = twist(kind, lc, buf, n, -(j - 1) - k) ? buf : lc;
        if (!is_identity(g, n) && append_factor(fs, g, n) < 0)
            goto fail;
    }
    Py_DECREF(seq);
    return finish_nf(kind, n, -k - r, fs, 0, PyList_GET_SIZE(fs));
fail:
    Py_DECREF(seq);
    Py_XDECREF(fs);
    return NULL;
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
        if ((p = perm_arg(PyTuple_GET_ITEM(seq, i), n)) == NULL) {
            Py_DECREF(seq);
            return NULL;
        }
        len = simple_length(kind, p, n);
        total += len;
        if (i < -k)
            head += len;
    }
    Py_DECREF(seq);
    greedy = (k < 0 ? -k : k) * (kind == KIND_ARTIN ? n * (n - 1) / 2 : n - 1) + total;
    return pair(PyLong_FromLongLong(greedy), PyLong_FromLongLong(greedy - 2 * head));
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
