# One conformance_fuzz band, run as a ctest (rows in tests/fuzz_bands.cmake):
#
#   cmake -DFUZZ=<conformance_fuzz binary> -DFLAGS="<flags>" \
#         -DPIN="<expected CONFORMANT: line>" -P fuzz_band_check.cmake
#
# Fails unless the sweep exits 0 and its CONFORMANT: summary line equals
# the pin byte for byte. A band that quietly checks fewer queries, or
# aborts more of them, moves its pin and fails here; a failing sweep
# prints its seed and REPRODUCE: line, which this passes through.

foreach(var FUZZ FLAGS PIN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${FLAGS}")
execute_process(
  COMMAND "${FUZZ}" ${args}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "conformance_fuzz ${FLAGS} exited with ${rc}:\n${out}${err}")
endif()

string(REGEX MATCH "CONFORMANT:[^\n]*" line "${out}")
if(NOT line STREQUAL PIN)
  message(FATAL_ERROR
    "fuzz band drift: conformance_fuzz ${FLAGS}\n"
    "  expected: ${PIN}\n"
    "  actual:   ${line}\n"
    "Either fix the regression or (for a deliberate behaviour change) edit "
    "the row's pin in tests/fuzz_bands.cmake and list it old -> new in "
    "CHANGES.md.")
endif()

message(STATUS "${line}")
