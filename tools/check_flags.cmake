# ctest script for deisa_scenario's flag and config-key handling: an
# unknown --flag must exit with code 2 and print the known-flag list, a
# known flag whose value is missing must do the same, and so must a config
# file with an unknown top-level key. Run as
#   cmake -DSCENARIO_BIN=<path> -DWORK_DIR=<scratch dir> -P check_flags.cmake

execute_process(
  COMMAND ${SCENARIO_BIN} --no-such-flag=1
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "unknown flag: expected exit 2, got '${rc}'")
endif()
if(NOT err MATCHES "unknown option '--no-such-flag=1'")
  message(FATAL_ERROR "unknown flag: stderr lacks the offending flag:\n${err}")
endif()
if(NOT err MATCHES "known flags:")
  message(FATAL_ERROR "unknown flag: stderr lacks the known-flag list:\n${err}")
endif()
# Every real flag must appear in the help so users can self-correct.
foreach(flag --trace-out --metrics-out --metrics-format --fault --substrate
        --scenario-seed --shards --release-consumed)
  if(NOT err MATCHES "${flag}=VALUE")
    message(FATAL_ERROR "known-flag list lacks ${flag}:\n${err}")
  endif()
endforeach()

execute_process(
  COMMAND ${SCENARIO_BIN} /dev/null --shards
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "valueless flag: expected exit 2, got '${rc}'")
endif()
if(NOT err MATCHES "option '--shards' requires a value")
  message(FATAL_ERROR "valueless flag: stderr lacks the diagnostic:\n${err}")
endif()

# Misspelled keys must not silently run the defaults (GC off, one shard).
file(WRITE ${WORK_DIR}/typo.yaml
  "pipeline: DEISA3\nranks: 2\nworkers: 1\nrelease_consumd: true\nshard: 4\n")
execute_process(
  COMMAND ${SCENARIO_BIN} ${WORK_DIR}/typo.yaml
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "misspelled keys: expected exit 2, got '${rc}'")
endif()
foreach(key release_consumd shard)
  if(NOT err MATCHES "unknown config key '${key}'")
    message(FATAL_ERROR "misspelled keys: stderr lacks '${key}':\n${err}")
  endif()
endforeach()
if(NOT err MATCHES "known keys:" OR NOT err MATCHES " release_consumed"
   OR NOT err MATCHES " shards")
  message(FATAL_ERROR "misspelled keys: stderr lacks the known-key list:\n${err}")
endif()

# A retired key must not fall back to its old default either.
file(WRITE ${WORK_DIR}/retired.yaml
  "pipeline: DEISA3\nranks: 2\nworkers: 1\ndata_plane: proxy\n")
execute_process(
  COMMAND ${SCENARIO_BIN} ${WORK_DIR}/retired.yaml
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "retired key: expected exit 2, got '${rc}'")
endif()
if(NOT err MATCHES "unknown config key 'data_plane'")
  message(FATAL_ERROR "retired key: stderr lacks the diagnostic:\n${err}")
endif()

# The retired trace ring policy key: a full ring always evicts its oldest
# event now, so a config still asking for a policy must not run silently.
file(WRITE ${WORK_DIR}/trace_drop.yaml
  "pipeline: DEISA3\nranks: 2\nworkers: 1\ntrace_drop: newest\n")
execute_process(
  COMMAND ${SCENARIO_BIN} ${WORK_DIR}/trace_drop.yaml
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "retired trace_drop key: expected exit 2, got '${rc}'")
endif()
if(NOT err MATCHES "unknown config key 'trace_drop'")
  message(FATAL_ERROR "retired trace_drop key: stderr lacks the diagnostic:\n${err}")
endif()

# The retired placement option: the flag is unknown ...
execute_process(
  COMMAND ${SCENARIO_BIN} --policy=locality /dev/null
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "retired --policy: expected exit 2, got '${rc}'")
endif()
if(NOT err MATCHES "unknown option '--policy=locality'")
  message(FATAL_ERROR "retired --policy: stderr lacks the diagnostic:\n${err}")
endif()

# ... and so is the key, so a stale config cannot silently run locality.
file(WRITE ${WORK_DIR}/policy.yaml
  "pipeline: DEISA3\nranks: 2\nworkers: 1\npolicy: round-robin\n")
execute_process(
  COMMAND ${SCENARIO_BIN} ${WORK_DIR}/policy.yaml
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "retired policy key: expected exit 2, got '${rc}'")
endif()
if(NOT err MATCHES "unknown config key 'policy'")
  message(FATAL_ERROR "retired policy key: stderr lacks the diagnostic:\n${err}")
endif()

# Refcount GC under a fault plan: the plan arms the failure detector, and
# lineage recovery would re-read inputs the GC released, so the pair is
# refused before the run starts instead of diverging at the time cap.
file(WRITE ${WORK_DIR}/gc_fault.yaml
  "pipeline: DEISA3\nranks: 4\nworkers: 3\nblock_mib: 1\ntimesteps: 6\nruns: 1\nreal_data: true\n")
execute_process(
  COMMAND ${SCENARIO_BIN} --release-consumed=true --fault=kill:1@0.2
          ${WORK_DIR}/gc_fault.yaml
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "gc with a fault plan: expected a non-zero exit")
endif()
if(NOT err MATCHES "release_consumed" OR NOT err MATCHES "heartbeat_timeout")
  message(FATAL_ERROR
    "gc with a fault plan: stderr lacks release_consumed/heartbeat_timeout:\n${err}")
endif()

# The faults key takes the --fault spec string only: a map is refused with
# the spec syntax instead of being read field by field.
file(WRITE ${WORK_DIR}/fault_map.yaml
  "pipeline: DEISA3\nranks: 2\nworkers: 2\nfaults:\n  dup: 0.1\n  seed: 7\n")
execute_process(
  COMMAND ${SCENARIO_BIN} ${WORK_DIR}/fault_map.yaml
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "faults map: expected a non-zero exit")
endif()
if(NOT err MATCHES "faults: expected a spec string" OR NOT err MATCHES "kill:1@30")
  message(FATAL_ERROR "faults map: stderr lacks the spec syntax:\n${err}")
endif()
