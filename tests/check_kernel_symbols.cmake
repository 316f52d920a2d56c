# COMDAT guard for the wide-ISA batch kernels.
#
#   cmake -DNM=<nm> -DLIB=<path/to/libadc_batch.a> -P check_kernel_symbols.cmake
#
# The AVX2 and AVX-512 kernel objects are compiled with wide target flags.
# A weak definition in them (the out-of-line COMDAT copy of an inline
# function) may be the copy the linker keeps for *baseline* callers too,
# which then crash on an SSE2 host; a strong symbol outside
# adc::batch::<tier>:: is wide code reachable without going through the
# dispatch table. See common/fastmath.hpp. This script lists every defined
# symbol of those two objects and fails on either kind.

if(NOT NM OR NOT LIB)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DLIB=<libadc_batch.a> -P check_kernel_symbols.cmake")
endif()

execute_process(COMMAND "${NM}" -C --defined-only "${LIB}"
                OUTPUT_VARIABLE listing
                ERROR_VARIABLE nm_err
                RESULT_VARIABLE nm_rc)
if(NOT nm_rc EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${LIB}: ${nm_err}")
endif()

# Demangled names may carry ';' and '[' ']', which CMake lists treat
# specially; neither matters for the checks below.
string(REPLACE ";" "," listing "${listing}")
string(REPLACE "[" "<" listing "${listing}")
string(REPLACE "]" ">" listing "${listing}")
string(REPLACE "\n" ";" lines "${listing}")

set(tier "")
set(findings "")
set(seen_avx2 0)
set(seen_avx512 0)
set(entry_points 0)
foreach(line IN LISTS lines)
  if(line MATCHES "^(.*)\\.o:$")
    # Archive member header: "batch_kernel_avx2.cpp.o:".
    set(tier "")
    if(line MATCHES "^batch_kernel_(avx2|avx512)\\.cpp\\.o:$")
      set(tier "${CMAKE_MATCH_1}")
      set(seen_${tier} 1)
    endif()
  elseif(tier AND line MATCHES "^[0-9a-fA-F]* *([A-Za-z?]) (.*)$")
    set(type "${CMAKE_MATCH_1}")
    set(name "${CMAKE_MATCH_2}")
    if(type MATCHES "^[WwVvu]$")
      string(APPEND findings "  ${tier}: weak/unique '${type}' ${name}\n")
    elseif(type MATCHES "^[A-Z]$")
      string(FIND "${name}" "adc::batch::${tier}::" at)
      if(at EQUAL 0)
        math(EXPR entry_points "${entry_points} + 1")
      else()
        string(APPEND findings "  ${tier}: strong '${type}' outside adc::batch::${tier}:: ${name}\n")
      endif()
    endif()
  endif()
endforeach()

if(NOT seen_avx2 OR NOT seen_avx512)
  message(FATAL_ERROR "no batch_kernel_avx2/avx512 objects in ${LIB}")
endif()
if(findings)
  message(FATAL_ERROR "wide-ISA kernel objects export symbols baseline code could bind to:\n${findings}")
endif()
message(STATUS "wide-ISA kernel objects: ${entry_points} entry points, no weak symbols")
