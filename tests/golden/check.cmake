# The paper's figures as a checked contract: runs every figure and table
# printer, ablation and example the build produced and compares what it
# writes, byte for byte, with the copy recorded in this directory.  A
# change meant to keep behaviour (a speed-up, a refactor) must leave every
# file unchanged; a behaviour change re-records them in the same change
# and names each file that moved.
#
#   cmake -DBIN_DIR=<dir with the binaries> -DWORK_DIR=<scratch dir>
#         -DBENCH=ON|OFF -DEXAMPLES=ON|OFF [-DRECORD=ON] -P check.cmake
#
# Each binary runs in WORK_DIR and must exit 0.  Groups the build left
# out (the sanitizer builds configure without benches and examples) are
# skipped; when nothing is left to compare the script prints GOLDEN-SKIP,
# which the ctest reports as a skipped test.  RECORD=ON writes the
# outputs into this directory instead of comparing them.

set(golden_dir "${CMAKE_CURRENT_LIST_DIR}")
# Relative directories name paths from where cmake was started.
get_filename_component(BIN_DIR "${BIN_DIR}" ABSOLUTE)
get_filename_component(WORK_DIR "${WORK_DIR}" ABSOLUTE)

# The figure and table printers (figures 2-9, tables 1-3), the six
# ablations and the market and overlay benches; fig10 runs below.
set(printers
    bench_fig2_utilization_migration
    bench_fig3_incentive
    bench_fig4_utilization_profiles
    bench_fig5_job_migration
    bench_fig6_rejections
    bench_fig7_user_qos_excluding
    bench_fig8_user_qos_including
    bench_fig9_messages
    bench_table1_config
    bench_table2_independent
    bench_table3_federation
    bench_ablation_backfilling
    bench_ablation_broadcast
    bench_ablation_coordination
    bench_ablation_cost_model
    bench_ablation_dynamic_pricing
    bench_ablation_wan
    bench_market_auction
    bench_overlay_directory)
set(examples
    auction_market
    churn_federation
    coalition_market
    economy_market
    gridfed_sim
    quickstart
    scaling_study
    trace_replay
    tree_fanout
    unreliable_network)

file(MAKE_DIRECTORY "${WORK_DIR}")
set(compared 0)
set(failed "")

# Records or compares one produced file against golden_dir/<golden>.
function(check_file golden produced)
  if(RECORD)
    configure_file("${produced}" "${golden_dir}/${golden}" COPYONLY)
    return()
  endif()
  file(READ "${golden_dir}/${golden}" expected)
  file(READ "${produced}" actual)
  if(NOT expected STREQUAL actual)
    message("MISMATCH ${golden}: diff -u ${golden_dir}/${golden} ${produced}")
    execute_process(COMMAND diff -u "${golden_dir}/${golden}" "${produced}")
    set(failed "${failed} ${golden}" PARENT_SCOPE)
  endif()
endfunction()

# Runs BIN_DIR/<binary> with the remaining arguments in WORK_DIR and
# checks its stdout against <binary>.stdout.
function(run_binary binary)
  set(stdout "${WORK_DIR}/${binary}.stdout")
  execute_process(COMMAND "${BIN_DIR}/${binary}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_FILE "${stdout}"
                  RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "0")
    message("FAILED ${binary}: exit status ${rc}")
    set(failed "${failed} ${binary}" PARENT_SCOPE)
    return()
  endif()
  check_file("${binary}.stdout" "${stdout}")
  set(failed "${failed}" PARENT_SCOPE)
endfunction()

set(binaries "")
if(BENCH)
  list(APPEND binaries ${printers})
endif()
if(EXAMPLES)
  list(APPEND binaries ${examples})
endif()
foreach(binary IN LISTS binaries)
  run_binary(${binary})
  math(EXPR compared "${compared} + 1")
endforeach()
if(BENCH)
  # The CI message-scaling gate's point: fig10's auction-only sweep at
  # 50 clusters, its stdout and its JSON summary.
  file(REMOVE "${WORK_DIR}/fig10.json")
  run_binary(bench_fig10_msg_per_job_scaling --auction-only --sizes=50
             --json=fig10.json)
  if(EXISTS "${WORK_DIR}/fig10.json")
    check_file(bench_fig10_msg_per_job_scaling.json "${WORK_DIR}/fig10.json")
  else()
    message("FAILED bench_fig10_msg_per_job_scaling: no fig10.json")
    set(failed "${failed} bench_fig10_msg_per_job_scaling.json")
  endif()
  math(EXPR compared "${compared} + 1")
endif()

if(compared EQUAL 0)
  message("GOLDEN-SKIP: the build has no benches or examples to compare")
elseif(failed)
  message(FATAL_ERROR "golden outputs differ or failed:${failed}")
elseif(RECORD)
  message("recorded ${compared} binaries into ${golden_dir}")
else()
  message("all ${compared} binaries match their golden outputs")
endif()
