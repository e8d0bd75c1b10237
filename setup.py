from setuptools import Extension, setup

# The bitset kernels are an optional accelerator: the package falls back to
# immlab.kernels.pure when the extension is absent.
try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        [Extension("immlab.kernels._bitrel", ["src/immlab/kernels/_bitrel.pyx"])],
        compiler_directives={"language_level": "3"},
    )
except ImportError:
    ext_modules = []

setup(ext_modules=ext_modules)
