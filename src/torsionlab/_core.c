/*
 * The compiled twin of ``_core_py.enumerate_submodules``, with the same
 * signature and result, written against the CPython C API.  It is the
 * one kernel that measures faster in C; ``kernels`` takes every other
 * kernel from ``_core_py`` on both backends.
 *
 * Flat tables arrive as Python sequences and are copied into int arrays
 * (a ``bytes`` table is read in place, with no list of ints); every entry
 * is checked to be an index into the table it points at, so a malformed
 * table raises ValueError instead of reading out of bounds.
 * Bitsets are built in uint64 words and returned as Python ints, through
 * int.from_bytes (little-endian).
 *
 * Build next to the sources with ``python3 setup.py build_ext --inplace``.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t word;

#define NWORDS(nbits) (((Py_ssize_t)(nbits) + 63) >> 6)

static inline int
getbit(const word *w, int i)
{
    return (int)((w[i >> 6] >> (i & 63)) & 1);
}

static inline void
setbit(word *w, int i)
{
    w[i >> 6] |= (word)1 << (i & 63);
}

/* Zeroed memory for n (at least one) items; MemoryError on failure. */
static void *
alloc(Py_ssize_t n, size_t size)
{
    void *p = PyMem_Calloc(n > 0 ? (size_t)n : 1, size);
    if (p == NULL)
        PyErr_NoMemory();
    return p;
}

static int
check_index(long v, long bound, const char *what)
{
    if (v < 0 || v >= bound) {
        PyErr_Format(PyExc_ValueError, "%s is %ld, outside 0..%ld", what, v, bound - 1);
        return -1;
    }
    return 0;
}

/* The flat table ``seq`` as a new int array.  It must have ``expected``
 * entries, each in 0..bound-1.  A ``bytes`` table, as structures of at
 * most 256 elements store them, is read in place; any other sequence
 * through ``PySequence_Fast``. */
static int *
to_ints(PyObject *seq, Py_ssize_t expected, long bound, const char *what)
{
    const unsigned char *bytes = NULL;
    PyObject *fast = NULL;
    Py_ssize_t n;
    if (PyBytes_Check(seq)) {
        bytes = (const unsigned char *)PyBytes_AS_STRING(seq);
        n = PyBytes_GET_SIZE(seq);
    } else {
        if ((fast = PySequence_Fast(seq, "a flat table must be a sequence")) == NULL)
            return NULL;
        n = PySequence_Fast_GET_SIZE(fast);
    }
    int *arr = NULL;
    if (n != expected || n > INT_MAX) {
        PyErr_Format(PyExc_ValueError, "%s has length %zd, expected %zd", what, n, expected);
        goto done;
    }
    if ((arr = alloc(n, sizeof(int))) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        long v = bytes ? (long)bytes[i] : PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, i));
        if ((v == -1 && PyErr_Occurred()) || v < 0 || v >= bound) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_ValueError, "%s[%zd] is %ld, outside 0..%ld",
                             what, i, v, bound - 1);
            PyMem_Free(arr);
            arr = NULL;
            goto done;
        }
        arr[i] = (int)v;
    }
done:
    Py_XDECREF(fast);
    return arr;
}

/* -- bitsets ------------------------------------------------------------- */

/* The words as little-endian bytes: the bitset's set and dict key. */
static PyObject *
words_key(const word *words, Py_ssize_t nwords)
{
    PyObject *key = PyBytes_FromStringAndSize(NULL, nwords * 8);
    if (key == NULL)
        return NULL;
    unsigned char *p = (unsigned char *)PyBytes_AS_STRING(key);
    for (Py_ssize_t i = 0; i < nwords * 8; i++)
        p[i] = (unsigned char)(words[i >> 3] >> (8 * (i & 7)));
    return key;
}

static PyObject *
key_to_int(PyObject *key)
{
    return PyObject_CallMethod((PyObject *)&PyLong_Type, "from_bytes", "Os", key, "little");
}

/* -- submodule enumeration ----------------------------------------------- */

/* A module's tables and the scratch space of the orbit-sum step. */
typedef struct {
    int m, n;
    Py_ssize_t nwords;
    int *add, *act;     /* m x m addition, n x m scalar action */
    int *elems;         /* members of the current submodule */
    word *seen, *out;   /* an orbit's elements so far; the step's result */
} Span;

static void
span_free(Span *s)
{
    PyMem_Free(s->add);
    PyMem_Free(s->act);
    PyMem_Free(s->elems);
    PyMem_Free(s->seen);
    PyMem_Free(s->out);
}

static int
span_load(Span *s, int m, int n, PyObject *add, PyObject *act, int zero)
{
    memset(s, 0, sizeof(*s));
    s->m = m;
    s->n = n;
    s->nwords = NWORDS(m);
    if (check_index(zero, m, "zero") < 0
        || (s->add = to_ints(add, (Py_ssize_t)m * m, m, "add")) == NULL
        || (s->act = to_ints(act, (Py_ssize_t)n * m, m, "act")) == NULL
        || (s->elems = alloc(m, sizeof(int))) == NULL
        || (s->seen = alloc(s->nwords, sizeof(word))) == NULL
        || (s->out = alloc(s->nwords, sizeof(word))) == NULL)
        return -1;
    return 0;
}

/* Write the distinct elements r.x (r in R) to ``orbit``; return their count. */
static int
orbit_of(Span *s, int x, int *orbit)
{
    int cnt = 0;
    memset(s->seen, 0, s->nwords * sizeof(word));
    for (int r = 0; r < s->n; r++) {
        int t = s->act[r * s->m + x];
        if (!getbit(s->seen, t)) {
            setbit(s->seen, t);
            orbit[cnt++] = t;
        }
    }
    return cnt;
}

/* List the members of ``sub`` in ``s->elems``; return their count. */
static int
members_of(Span *s, const word *sub)
{
    int cnt = 0;
    for (int i = 0; i < s->m; i++)
        if (getbit(sub, i))
            s->elems[cnt++] = i;
    return cnt;
}

/* Set in ``out`` the coset s + t over the nelems members s in s->elems. */
static void
mark_coset(const Span *s, int nelems, int t, word *out)
{
    const int *col = s->add + t;
    for (int j = 0; j < nelems; j++)
        setbit(out, col[s->elems[j] * s->m]);
}

/* s->out = sub + Rx for a closed ``sub`` whose nelems members are listed
 * in s->elems, given the orbit Rx.  The orbit is itself closed under
 * addition and scalars, so the elementwise sum is already the generated
 * submodule.  An orbit element already in the sum is s + t0 for an
 * earlier t0 and adds nothing, so each coset is added once. */
static void
sum_with_orbit(Span *s, const word *sub, int nelems, const int *orbit, int norbit)
{
    memcpy(s->out, sub, s->nwords * sizeof(word));
    for (int i = 0; i < norbit; i++)
        if (!getbit(s->out, orbit[i]))
            mark_coset(s, nelems, orbit[i], s->out);
}

/* Add the bitset ``words`` to the set ``found``: 1 if it is new there,
 * 0 if it was already in, -1 on error. */
static int
add_new(PyObject *found, const word *words, Py_ssize_t nwords)
{
    PyObject *key = words_key(words, nwords);
    if (key == NULL)
        return -1;
    int had = PySet_Contains(found, key);
    int fresh = had < 0 ? -1 : had ? 0 : PySet_Add(found, key) < 0 ? -1 : 1;
    Py_DECREF(key);
    return fresh;
}

PyDoc_STRVAR(enumerate_submodules_doc,
"enumerate_submodules(m, n, add, act, zero)\n"
"All closed subsets, as a sorted list of bitsets.");

static PyObject *
enumerate_submodules(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"m", "n", "add", "act", "zero", NULL};
    int m, n, zero;
    PyObject *add, *act, *found = NULL, *key, *iter = NULL, *result = NULL;
    Span s;
    int *orbits = NULL, *norbit = NULL;
    word *queue = NULL, *cur = NULL, *seen = NULL;
    Py_ssize_t qlen = 0, qcap = 16;
    if (!PyArg_ParseTupleAndKeywords(args, kw, "iiOOi:enumerate_submodules", kwlist,
                                     &m, &n, &add, &act, &zero))
        return NULL;
    if (span_load(&s, m, n, add, act, zero) < 0
        || (orbits = alloc((Py_ssize_t)m * n, sizeof(int))) == NULL
        || (norbit = alloc(m, sizeof(int))) == NULL
        || (cur = alloc(s.nwords, sizeof(word))) == NULL
        || (seen = alloc(s.nwords, sizeof(word))) == NULL
        || (queue = alloc(qcap * s.nwords, sizeof(word))) == NULL
        || (found = PySet_New(NULL)) == NULL)
        goto done;
    /* each orbit once per call, each member list once per popped submodule */
    for (int x = 0; x < m; x++)
        norbit[x] = orbit_of(&s, x, orbits + (Py_ssize_t)x * n);
    setbit(queue, zero);
    qlen = 1;
    if (add_new(found, queue, s.nwords) < 0)
        goto done;
    while (qlen > 0) {
        qlen--;
        memcpy(cur, queue + qlen * s.nwords, s.nwords * sizeof(word));
        int nelems = members_of(&s, cur);
        /* S + Rx depends only on the coset x + S: one x, the least, per coset */
        memcpy(seen, cur, s.nwords * sizeof(word));
        for (int x = 0; x < m; x++) {
            if (getbit(seen, x))
                continue;
            mark_coset(&s, nelems, x, seen);
            sum_with_orbit(&s, cur, nelems, orbits + (Py_ssize_t)x * n, norbit[x]);
            int fresh = add_new(found, s.out, s.nwords);
            if (fresh < 0)
                goto done;
            if (!fresh)
                continue;
            if (qlen == qcap) {
                word *grown = PyMem_Realloc(queue, 2 * qcap * s.nwords * sizeof(word));
                if (grown == NULL) {
                    PyErr_NoMemory();
                    goto done;
                }
                queue = grown;
                qcap *= 2;
            }
            memcpy(queue + qlen * s.nwords, s.out, s.nwords * sizeof(word));
            qlen++;
        }
    }
    if ((result = PyList_New(0)) == NULL || (iter = PyObject_GetIter(found)) == NULL)
        goto fail;
    while ((key = PyIter_Next(iter)) != NULL) {
        PyObject *bits = key_to_int(key);
        Py_DECREF(key);
        if (bits == NULL || PyList_Append(result, bits) < 0) {
            Py_XDECREF(bits);
            goto fail;
        }
        Py_DECREF(bits);
    }
    if (PyErr_Occurred() || PyList_Sort(result) < 0)
        goto fail;
    goto done;
fail:
    Py_CLEAR(result);
done:
    Py_XDECREF(iter);
    Py_XDECREF(found);
    PyMem_Free(queue);
    PyMem_Free(cur);
    PyMem_Free(seen);
    PyMem_Free(norbit);
    PyMem_Free(orbits);
    span_free(&s);
    return result;
}

/* -- module -------------------------------------------------------------- */

static PyMethodDef core_methods[] = {
    {"enumerate_submodules", (PyCFunction)(void (*)(void))enumerate_submodules,
     METH_VARARGS | METH_KEYWORDS, enumerate_submodules_doc},
    {NULL, NULL, 0, NULL},
};

static int
core_exec(PyObject *mod)
{
    return PyModule_AddStringConstant(mod, "BACKEND_NAME", "compiled");
}

static PyModuleDef_Slot core_slots[] = {
    {Py_mod_exec, core_exec},
    {0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    "torsionlab._core",
    "The compiled twin of ``_core_py.enumerate_submodules``.",
    0,
    core_methods,
    core_slots,
    NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    return PyModuleDef_Init(&core_module);
}
