# apps.cli_smoke: trains calibre_cli for 2 rounds on a tiny population and
# saves the global state, then reruns with --load (personalization only,
# capped) and requires both runs to exit 0 and the reload to report the
# novel clients.
#
#   cmake -DCLI=<path to calibre_cli> -DSTATE=<state file> -P cli_smoke.cmake
set(common_args --clients 6 --novel 2 --samples 20 --test-samples 10
                --clients-per-round 2 --local-epochs 1 --threads 2)

execute_process(
  COMMAND ${CLI} ${common_args} --rounds 2 --save ${STATE}
  RESULT_VARIABLE train_rc)
if(NOT train_rc EQUAL 0)
  message(FATAL_ERROR "training run exited with ${train_rc}")
endif()

execute_process(
  COMMAND ${CLI} ${common_args} --load ${STATE} --personalize-cap 3
  RESULT_VARIABLE load_rc
  OUTPUT_VARIABLE load_out)
message("${load_out}")
if(NOT load_rc EQUAL 0)
  message(FATAL_ERROR "--load run exited with ${load_rc}")
endif()
if(NOT load_out MATCHES "novel-client accuracy")
  message(FATAL_ERROR "--load run did not personalize the novel clients")
endif()
