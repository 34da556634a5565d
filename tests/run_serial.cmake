# Read by ctest after the discovered tests (TEST_INCLUDE_FILES): timing
# tests whose bar needs every core run with no other test beside them,
# also under `ctest -j N`.  Each name is checked against its binary's
# discovered list, so a tree whose test binary is not built still loads.
list(FIND test_parallel_TESTS "Parallel.SpeedupOnLargeProblem" fmm_index)
if(NOT fmm_index EQUAL -1)
  set_tests_properties(Parallel.SpeedupOnLargeProblem PROPERTIES
                       RUN_SERIAL TRUE)
endif()
