/* Compiled orbit, keystream and byte-count kernels.
 *
 * Semantics are bit-identical to _purepy: IEEE 754 binary64,
 * round-to-nearest-even, the exact operation order written below. Build
 * with -ffp-contract=off (setup.py does) so the compiler cannot fuse a
 * multiply and an add; never add -ffast-math or anything that implies it.
 * Every argument is checked before the first write, and errors have the
 * same types as in _purepy, and no double outside an integer type's range
 * (or NaN) is ever converted to one. Only the CPython API and the buffer
 * protocol are used; the orbit and count arrays come from numpy.empty.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <stdint.h>
#include <string.h>

#if FLT_EVAL_METHOD != 0
#error "binary64 expressions must be evaluated in binary64 (FLT_EVAL_METHOD 0)"
#endif

static PyObject *numpy_empty;

/* One undamped map step in the scheme's exact operation order (1..3). */
static inline double
cubic_step(double x, double r, double omr, int scheme)
{
    double t;
    if (scheme == 1) {
        t = r * x;
        t = t * x;
        t = t * x;
        return t + omr * x;
    }
    if (scheme == 2) {
        t = (x * x) * x;
        t = r * t;
        return t + (x - r * x);
    }
    t = (r * x) * x;
    t = t + omr;
    return x * t;
}

static PyObject *
run_orbit(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"x0", "r", "scheme", "damping", "n", NULL};
    double x0, r, damping;
    int scheme;
    Py_ssize_t n;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "ddidn:run_orbit", kwlist,
                                     &x0, &r, &scheme, &damping, &n))
        return NULL;
    if (scheme < 1 || scheme > 4)
        return PyErr_Format(PyExc_ValueError, "unknown evaluation scheme id %d", scheme);
    if (n < 0)
        return PyErr_Format(PyExc_ValueError, "iteration count must be >= 0, got %zd", n);
    if (n == PY_SSIZE_T_MAX) /* n + 1 samples; numpy.empty raises for sizes this large */
        return PyErr_Format(PyExc_ValueError, "Maximum allowed dimension exceeded");
    if (scheme == 4)
        scheme = 1; /* E4's ((r*x)*x)*x is E1's operation order, bit for bit */

    PyObject *arr = PyObject_CallFunction(numpy_empty, "ns", n + 1, "float64");
    if (arr == NULL)
        return NULL;
    Py_buffer view;
    if (PyObject_GetBuffer(arr, &view, PyBUF_WRITABLE) < 0) {
        Py_DECREF(arr);
        return NULL;
    }
    double *out = view.buf;
    double x = x0, omr = 1.0 - r, y;
    Py_ssize_t escape = -1;
    out[0] = x;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t k = 0; k < n; k++) {
        y = damping * cubic_step(x, r, omr, scheme);
        out[k + 1] = y;
        if (!(-1.5 <= y && y <= 1.5)) { /* also catches NaN */
            escape = k + 1;
            break;
        }
        x = y;
    }
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&view);
    return Py_BuildValue("Nn", arr, escape);
}

/* A 1-D C-contiguous buffer of item format `fmt`; on error, nothing held. */
static int
get_block(PyObject *obj, Py_buffer *view, const char *name, const char *fmt, int writable)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    const char *got = view->format ? view->format : "B";
    if (view->ndim != 1 || !PyBuffer_IsContiguous(view, 'C'))
        PyErr_Format(PyExc_ValueError, "%s must be a 1-D contiguous buffer", name);
    else if (strcmp(got, fmt) != 0)
        PyErr_Format(PyExc_TypeError, "%s must have item format '%s', got '%s'", name, fmt, got);
    else if (writable && view->readonly)
        PyErr_Format(PyExc_ValueError, "%s must be writable", name);
    else
        return 0;
    PyBuffer_Release(view);
    return -1;
}

/* Key byte of a sample x in [-1, 1]: floor(255 * frac(1000 * (x/2 + 1))).
 * z lies in [500, 1500] and 255*frac in [0, 255), so each truncating cast
 * is the floor of an in-range non-negative value, never undefined. */
static inline unsigned char
key_byte(double x)
{
    double z = (x / 2.0 + 1.0) * 1000.0;
    return (unsigned char)(255.0 * (z - (double)(int)z));
}

static PyObject *
normalize_block(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"samples", "out", NULL};
    PyObject *samples_obj, *out_obj;
    Py_buffer sv, ov;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:normalize_block", kwlist,
                                     &samples_obj, &out_obj))
        return NULL;
    if (get_block(samples_obj, &sv, "samples", "d", 0) < 0)
        return NULL;
    if (get_block(out_obj, &ov, "out", "B", 1) < 0) {
        PyBuffer_Release(&sv);
        return NULL;
    }
    Py_ssize_t n = sv.shape[0], stop = -1;
    if (ov.shape[0] < n) {
        PyErr_Format(PyExc_ValueError, "out holds %zd bytes, samples has %zd", ov.shape[0], n);
        PyBuffer_Release(&ov);
        PyBuffer_Release(&sv);
        return NULL;
    }
    const double *s = sv.buf;
    unsigned char *out = ov.buf;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (!(-1.0 <= s[i] && s[i] <= 1.0)) { /* also catches NaN */
            stop = i;
            break;
        }
    }
    Py_ssize_t valid = stop < 0 ? n : stop;
    for (Py_ssize_t i = 0; i < valid; i++)
        out[i] = key_byte(s[i]);
    PyBuffer_Release(&ov);
    PyBuffer_Release(&sv);
    return PyLong_FromSsize_t(stop);
}

/* Orbits of up to LANES seeds advanced side by side: the lanes are
 * independent dependency chains, so the CPU overlaps their latencies. */
#define LANES 8

typedef struct {
    Py_ssize_t index; /* -1: the lane is clean */
    int escaped;
    double value;
} lane_fault;

/* One group of m <= LANES lanes, each `block` iterations; lane j writes its
 * bytes to out + j*block. A lane stops at its first escape, which is its
 * fault; otherwise its fault is its first sample outside [-1, 1]. */
static void
run_lanes(const double *x0, int m, double r, int scheme, double damping, Py_ssize_t block,
          unsigned char *out, lane_fault *fault)
{
    double x[LANES], omr = 1.0 - r, y;
    int running = m;
    for (int j = 0; j < m; j++) {
        x[j] = x0[j];
        fault[j].index = -1;
        fault[j].escaped = 0;
    }
    for (Py_ssize_t k = 0; k < block && running; k++) {
        for (int j = 0; j < m; j++) {
            if (fault[j].escaped)
                continue;
            y = damping * cubic_step(x[j], r, omr, scheme);
            if (!(-1.5 <= y && y <= 1.5)) { /* also catches NaN */
                fault[j] = (lane_fault){k + 1, 1, y};
                running--;
                continue;
            }
            if (-1.0 <= y && y <= 1.0)
                out[j * block + k] = key_byte(y);
            else if (fault[j].index < 0)
                fault[j] = (lane_fault){k, 0, y};
            x[j] = y;
        }
    }
}

static PyObject *
keystream(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"x0s", "r", "scheme", "damping", "block", "out", NULL};
    PyObject *x0s_obj, *out_obj;
    double r, damping;
    int scheme;
    Py_ssize_t block;
    Py_buffer xv, ov;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OdidnO:keystream", kwlist,
                                     &x0s_obj, &r, &scheme, &damping, &block, &out_obj))
        return NULL;
    if (scheme < 1 || scheme > 4)
        return PyErr_Format(PyExc_ValueError, "unknown evaluation scheme id %d", scheme);
    if (block < 0)
        return PyErr_Format(PyExc_ValueError, "block length must be >= 0, got %zd", block);
    if (scheme == 4)
        scheme = 1; /* E4's ((r*x)*x)*x is E1's operation order, bit for bit */
    if (get_block(x0s_obj, &xv, "x0s", "d", 0) < 0)
        return NULL;
    if (get_block(out_obj, &ov, "out", "B", 1) < 0) {
        PyBuffer_Release(&xv);
        return NULL;
    }
    Py_ssize_t lanes = xv.shape[0];
    if (block > 0 && (lanes > PY_SSIZE_T_MAX / block || ov.shape[0] < lanes * block)) {
        PyErr_Format(PyExc_ValueError, "out holds %zd bytes, %zd lanes of %zd needed",
                     ov.shape[0], lanes, block);
        PyBuffer_Release(&ov);
        PyBuffer_Release(&xv);
        return NULL;
    }
    const double *x0 = xv.buf;
    unsigned char *out = ov.buf;
    lane_fault fault[LANES];
    Py_ssize_t failed = -1;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t g = 0; g < lanes && failed < 0; g += LANES) {
        int m = lanes - g < LANES ? (int)(lanes - g) : LANES;
        run_lanes(x0 + g, m, r, scheme, damping, block, out + g * block, fault);
        for (int j = 0; j < m && failed < 0; j++)
            if (fault[j].index >= 0)
                failed = g + j;
    }
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&ov);
    PyBuffer_Release(&xv);
    if (failed < 0)
        Py_RETURN_NONE;
    lane_fault *f = &fault[failed % LANES];
    return Py_BuildValue("nNnd", failed, PyBool_FromLong(f->escaped), f->index, f->value);
}

static PyObject *
byte_counts(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"data", NULL};
    PyObject *data_obj;
    Py_buffer dv, cv;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O:byte_counts", kwlist, &data_obj))
        return NULL;
    if (get_block(data_obj, &dv, "data", "B", 0) < 0)
        return NULL;
    /* numpy names the dtype: int64's buffer format is 'l' or 'q' by platform */
    PyObject *arr = PyObject_CallFunction(numpy_empty, "ns", (Py_ssize_t)256, "int64");
    if (arr == NULL || PyObject_GetBuffer(arr, &cv, PyBUF_WRITABLE) < 0) {
        Py_XDECREF(arr);
        PyBuffer_Release(&dv);
        return NULL;
    }
    const unsigned char *data = dv.buf;
    int64_t *counts = cv.buf;
    Py_ssize_t n = dv.shape[0];
    Py_BEGIN_ALLOW_THREADS
    memset(counts, 0, 256 * sizeof *counts);
    for (Py_ssize_t i = 0; i < n; i++)
        counts[data[i]]++;
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&cv);
    PyBuffer_Release(&dv);
    return arr;
}

static PyMethodDef core_methods[] = {
    {"run_orbit", (PyCFunction)(void (*)(void))run_orbit, METH_VARARGS | METH_KEYWORDS,
     "Mirror of _purepy.run_orbit; see its docstring for the contract."},
    {"normalize_block", (PyCFunction)(void (*)(void))normalize_block, METH_VARARGS | METH_KEYWORDS,
     "Mirror of _purepy.normalize_block; see its docstring."},
    {"keystream", (PyCFunction)(void (*)(void))keystream, METH_VARARGS | METH_KEYWORDS,
     "Mirror of _purepy.keystream; see its docstring for the contract."},
    {"byte_counts", (PyCFunction)(void (*)(void))byte_counts, METH_VARARGS | METH_KEYWORDS,
     "Mirror of _purepy.byte_counts; see its docstring."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_core",
    .m_doc = "Compiled orbit, keystream and byte-count kernels.",
    .m_size = -1,
    .m_methods = core_methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    PyObject *numpy = PyImport_ImportModule("numpy");
    if (numpy == NULL)
        return NULL;
    Py_XSETREF(numpy_empty, PyObject_GetAttrString(numpy, "empty"));
    Py_DECREF(numpy);
    if (numpy_empty == NULL)
        return NULL;
    PyObject *module = PyModule_Create(&core_module);
    if (module != NULL && PyModule_AddStringConstant(module, "BACKEND", "c") < 0)
        Py_CLEAR(module);
    return module;
}
