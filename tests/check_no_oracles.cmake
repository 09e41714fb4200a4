# Fails when the production library defines an oracle entry point.
#
#   cmake -DNM=<nm> -DLIB=<libeve.a> -P check_no_oracles.cmake
#
# The oracles (tests/oracles) belong to the test/benchmark-only eve_oracles
# library.  ExecutePrepared is the positive control: a symbol listing that
# lacks it means nm read nothing, which must not pass as "no oracles".

if(NOT NM OR NOT LIB)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DLIB=<library> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

execute_process(
  COMMAND ${NM} -C --defined-only ${LIB}
  OUTPUT_VARIABLE symbols
  ERROR_VARIABLE nm_errors
  RESULT_VARIABLE nm_result)
if(NOT nm_result EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${LIB}: ${nm_errors}")
endif()
if(NOT symbols MATCHES "ExecutePrepared")
  message(FATAL_ERROR "${LIB}: symbol listing lacks ExecutePrepared")
endif()

foreach(oracle SynchronizeEager ExecuteViewReference)
  if(symbols MATCHES "${oracle}")
    message(FATAL_ERROR "${LIB} defines the oracle ${oracle}")
  endif()
endforeach()
message(STATUS "${LIB}: no oracle symbols")
