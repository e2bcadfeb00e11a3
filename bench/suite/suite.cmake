# End-to-end link benchmark target, injected into the root project without
# touching its build files:
#
#   cmake -S . -B build-bench -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_bhss_INCLUDE=$PWD/bench/suite/suite.cmake
#
# This file runs right after the root project() call, before the root
# CMakeLists sets CMAKE_CXX_STANDARD and before src/ defines the libraries,
# so the standard is requested per target and the libraries are linked by
# name (CMake resolves them at generate time).

add_executable(bhss_suite
  ${CMAKE_CURRENT_LIST_DIR}/main.cpp
  ${CMAKE_CURRENT_LIST_DIR}/workloads.cpp
  ${CMAKE_CURRENT_LIST_DIR}/replica.cpp
  ${CMAKE_CURRENT_LIST_DIR}/alloc_count.cpp
  ${CMAKE_CURRENT_LIST_DIR}/calibrate.cpp
)
target_compile_features(bhss_suite PRIVATE cxx_std_20)
target_compile_options(bhss_suite PRIVATE -Wall -Wextra)
target_link_libraries(bhss_suite PRIVATE bhss_core bhss_runtime)
