from setuptools import Extension, setup

# The compiled kernels must execute the exact written operation order:
# no FMA contraction, no reassociation. -ffp-contract=off pins that for
# gcc/clang; -ffast-math style flags must never be added here. The
# extension is optional: without a C compiler the install still succeeds
# and the pure-Python kernels are selected at import time.
setup(
    ext_modules=[
        Extension(
            "cubicrypt._core",
            ["src/cubicrypt/_core.c"],
            extra_compile_args=["-O2", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
