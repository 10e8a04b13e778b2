# ns::archcheck build-time gate (DESIGN.md §12): every public header under
# src/ must be self-contained — it compiles as the sole include of an empty
# TU. Each header gets two generated TUs in one OBJECT library: one with the
# project macros as the build defines them, and one that first undefines
# NS_SIMD, the only project macro a header reads, as a bare compile would.
# A header that silently leans on its includer's context or on that macro
# fails the ordinary (parallel) build, not just the lint tier. ns_lint's
# architecture pack (tools/lint_architecture.cpp) re-checks the same
# property standalone via --compile-headers (check-static and the
# non_self_contained fixture test).

file(GLOB_RECURSE NS_PUBLIC_HEADERS RELATIVE "${CMAKE_SOURCE_DIR}/src"
     CONFIGURE_DEPENDS "${CMAKE_SOURCE_DIR}/src/*.hpp")
list(SORT NS_PUBLIC_HEADERS)

set(NS_HEADER_TU_SOURCES)
foreach(header IN LISTS NS_PUBLIC_HEADERS)
  string(REPLACE "/" "_" tu_stem "${header}")
  foreach(variant IN ITEMS "" "_bare")
    set(tu "${CMAKE_BINARY_DIR}/header_tus/tu${variant}_${tu_stem}.cpp")
    set(tu_content "// Generated: proves ${header} compiles standalone.\n")
    if(variant STREQUAL "_bare")
      string(APPEND tu_content "#undef NS_SIMD\n")
    endif()
    string(APPEND tu_content "#include \"${header}\"\n")
    set(existing "")
    if(EXISTS "${tu}")
      file(READ "${tu}" existing)
    endif()
    if(NOT existing STREQUAL tu_content)  # write-if-changed: keep rebuilds incremental
      file(WRITE "${tu}" "${tu_content}")
    endif()
    list(APPEND NS_HEADER_TU_SOURCES "${tu}")
  endforeach()
endforeach()

add_library(ns_header_tus OBJECT ${NS_HEADER_TU_SOURCES})
target_include_directories(ns_header_tus PRIVATE "${CMAKE_SOURCE_DIR}/src")
target_link_libraries(ns_header_tus PRIVATE Threads::Threads)
