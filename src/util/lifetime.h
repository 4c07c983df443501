#ifndef AIDA_UTIL_LIFETIME_H_
#define AIDA_UTIL_LIFETIME_H_

/// View-lifetime annotations for the span-based KB read API.
///
/// Since the flat-snapshot work (DESIGN.md §5f) every bulk KB read —
/// dictionary candidates, keyphrase arrays, link-graph rows — returns a
/// `std::span` / `std::string_view` that may point directly into an
/// mmap-ed snapshot. The snapshot is retired RCU-style: when the last
/// pinned request drops its `shared_ptr`, the file is unmapped. A view
/// that outlives its pin is therefore a silent use-after-munmap that no
/// test may ever execute. These macros make the contract checkable at
/// compile time, the same way util/thread_annotations.h made the locking
/// contracts checkable (DESIGN.md §6).
///
/// Under Clang they expand to the lifetime attributes consumed by
/// `-Wdangling`, `-Wdangling-gsl` and `-Wreturn-stack-address`
/// (tools/run_static_analysis.sh promotes all three to errors); on other
/// compilers they expand to nothing, so annotated code builds everywhere.
///
/// Conventions (DESIGN.md §6 "View-lifetime contract"):
///  * every function returning a span, string_view, or reference that
///    aliases `*this` (or a parameter) carries AIDA_LIFETIME_BOUND on
///    the aliased object — for member functions that is a trailing
///    annotation binding the implicit `this`;
///  * structs that aggregate raw pointers/views into storage they do not
///    own (the kb/flat `FlatView`s, the flat loader's `SectionTable`)
///    are declared `struct AIDA_VIEW_TYPE Name`; the view-storage lint
///    exempts such types from the "no views in members" rule, because a
///    view-of-views dies with the same pin;
///  * classes that own the bytes their accessors alias (the KB stores,
///    `MappedFile`) are declared `class AIDA_OWNER_TYPE Name`, which
///    lets Clang flag a view initialized from a temporary owner.

#if defined(__clang__)

/// On a function parameter (or trailing, for the implicit object
/// parameter): the return value aliases this argument and must not
/// outlive it.
#define AIDA_LIFETIME_BOUND [[clang::lifetimebound]]

/// On a class/struct declaration: instances are non-owning views;
/// initializing one from a temporary owner is a dangling-view error.
#define AIDA_VIEW_TYPE [[gsl::Pointer]]

/// On a class/struct declaration: instances own storage that views may
/// alias; a view taken from a temporary instance dangles.
#define AIDA_OWNER_TYPE [[gsl::Owner]]

#else  // !__clang__

#define AIDA_LIFETIME_BOUND   // no-op off Clang
#define AIDA_VIEW_TYPE        // no-op off Clang
#define AIDA_OWNER_TYPE       // no-op off Clang

#endif  // __clang__

#endif  // AIDA_UTIL_LIFETIME_H_
