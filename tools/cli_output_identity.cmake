# Test helper: a CLI run must print the same outputs under every flag
# variant. Runs `TOOL ARGS` once as the reference, then once per entry
# of VARIANTS with that entry's flags appended; every run's printed
# `output[...]` lines (the first query batch's values and indices)
# must match the reference exactly. Catches any divergence between
# serving paths -- single shot vs session, shard merge order, index
# remapping, k truncation -- at the user-facing surface.
#
# Usage:
#   cmake -DTOOL=<c4cam-run> "-DARGS=<args>"
#         "-DVARIANTS=--shards 1;--shards 2" -P cli_output_identity.cmake

function(run_and_extract_outputs result_var)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "'${ARGN}' failed with '${rc}' (stderr: ${err})")
  endif()
  string(REGEX MATCHALL "output\\[[^\n]*" lines "${out}")
  if(lines STREQUAL "")
    message(FATAL_ERROR
            "'${ARGN}' printed no output[...] lines to compare "
            "(stdout: ${out})")
  endif()
  set(${result_var} "${lines}" PARENT_SCOPE)
endfunction()

separate_arguments(tool_args UNIX_COMMAND "${ARGS}")
run_and_extract_outputs(reference ${TOOL} ${tool_args})

foreach(variant IN LISTS VARIANTS)
  separate_arguments(variant_args UNIX_COMMAND "${variant}")
  run_and_extract_outputs(outputs ${TOOL} ${tool_args} ${variant_args})
  if(NOT outputs STREQUAL reference)
    message(FATAL_ERROR
            "'${variant}' outputs diverge from the reference run:\n"
            "reference: ${reference}\n"
            "${variant}: ${outputs}")
  endif()
endforeach()
