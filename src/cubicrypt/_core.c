/* Compiled orbit and keystream kernels.
 *
 * Semantics are bit-identical to _purepy: IEEE 754 binary64,
 * round-to-nearest-even, the exact operation order written below. Build
 * with -ffp-contract=off (setup.py does) so the compiler cannot fuse a
 * multiply and an add; never add -ffast-math or anything that implies it.
 * Every argument is checked before the first write, and errors have the
 * same types as in _purepy. Only the CPython API and the buffer protocol
 * are used; the orbit array comes from numpy.empty.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <string.h>
#include <math.h>

#if FLT_EVAL_METHOD != 0
#error "binary64 expressions must be evaluated in binary64 (FLT_EVAL_METHOD 0)"
#endif

static PyObject *numpy_empty;

static PyObject *
run_orbit(PyObject *self, PyObject *args, PyObject *kwargs)
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
    double x = x0, omr = 1.0 - r, t, y;
    Py_ssize_t escape = -1;
    out[0] = x;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t k = 0; k < n; k++) {
        if (scheme == 1) {
            t = r * x;
            t = t * x;
            t = t * x;
            y = t + omr * x;
        } else if (scheme == 2) {
            t = (x * x) * x;
            t = r * t;
            y = t + (x - r * x);
        } else {
            t = (r * x) * x;
            t = t + omr;
            y = x * t;
        }
        y = damping * y;
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

static PyObject *
normalize_block(PyObject *self, PyObject *args, PyObject *kwargs)
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
        double x = s[i];
        if (!(-1.0 <= x && x <= 1.0)) { /* also catches NaN */
            stop = i;
            break;
        }
        double z = (x / 2.0 + 1.0) * 1000.0;
        out[i] = (unsigned char)floor(255.0 * (z - floor(z)));
    }
    PyBuffer_Release(&ov);
    PyBuffer_Release(&sv);
    return PyLong_FromSsize_t(stop);
}

static PyMethodDef core_methods[] = {
    {"run_orbit", (PyCFunction)(void (*)(void))run_orbit, METH_VARARGS | METH_KEYWORDS,
     "Mirror of _purepy.run_orbit; see its docstring for the contract."},
    {"normalize_block", (PyCFunction)(void (*)(void))normalize_block, METH_VARARGS | METH_KEYWORDS,
     "Mirror of _purepy.normalize_block; see its docstring."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT, "_core", "Compiled orbit and keystream kernels.", -1, core_methods,
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
