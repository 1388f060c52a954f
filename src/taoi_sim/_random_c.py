# numpy's C random_gamma, the sampler behind Generator.gamma, declared
# for cffi's out-of-line ABI mode: loading it needs only _cffi_backend,
# no compiler and no cdef parse at import. Generated once, with
# ``ffibuilder = cffi.FFI()``, by
#
#     ffibuilder.cdef("double random_gamma(void *bitgen_state, double shape, double scale);")
#     ffibuilder.set_source("taoi_sim._random_c", None)
#     ffibuilder.compile()
#
# auto-generated file
import _cffi_backend

ffi = _cffi_backend.FFI('taoi_sim._random_c',
    _version = 0x2601,
    _types = b'\x00\x00\x02\x0D\x00\x00\x05\x03\x00\x00\x0E\x01\x00\x00\x0E\x01\x00\x00\x00\x0F\x00\x00\x00\x01',
    _globals = (b'\x00\x00\x00\x23random_gamma',0,),
)
