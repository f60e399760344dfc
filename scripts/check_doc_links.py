#!/usr/bin/env python3
"""CI gate over the hand-written documentation (stdlib only).

Checks, over README.md and every docs/*.md file:

1. every relative markdown link points at a file that exists in the
   repository (http/https/mailto links are out of scope — CI must not
   depend on external availability);
2. every anchor (`#section`, alone or after a relative path) resolves to
   a heading of the target file, using GitHub's slug rules;
3. docs/ARCHITECTURE.md mentions every workspace crate by package name,
   so a crate added without a place in the architecture map fails CI;
4. every backticked `*.md` file named in a rustdoc comment (`//!` or
   `///`) of a Rust source under crates/ or src/ exists, as a path from
   the repository root or from the citing file's directory.

Exit status 0 iff all checks pass; failures are listed one per line.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING = re.compile(r"^#{1,6}\s+(.*)$")
RUSTDOC = re.compile(r"^\s*//[/!]")
CITED_MD = re.compile(r"`([^`\s]+\.md)`")
FENCE = re.compile(r"^\s*(```|~~~)")


def strip_fences(text: str):
    """Markdown lines outside fenced code blocks."""
    inside = False
    for line in text.splitlines():
        if FENCE.match(line):
            inside = not inside
            continue
        if not inside:
            yield line


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for one heading line."""
    # Inline code and emphasis markers do not appear in slugs.
    heading = re.sub(r"[`*_]", "", heading.strip())
    # Markdown links in headings keep only their text.
    heading = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    heading = heading.lower()
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def anchors_of(path: Path) -> set:
    slugs = set()
    counts = {}
    for line in strip_fences(path.read_text(encoding="utf-8")):
        m = HEADING.match(line)
        if not m:
            continue
        slug = github_slug(m.group(1))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def check_links(doc: Path, failures: list):
    text = doc.read_text(encoding="utf-8")
    for line in strip_fences(text):
        for m in LINK.finditer(line):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            if path_part:
                resolved = (doc.parent / path_part).resolve()
                if not resolved.exists():
                    failures.append(f"{doc.relative_to(ROOT)}: broken link {target!r}")
                    continue
            else:
                resolved = doc
            if anchor:
                if resolved.suffix != ".md" or not resolved.is_file():
                    continue  # anchors into non-markdown targets: out of scope
                if anchor not in anchors_of(resolved):
                    failures.append(
                        f"{doc.relative_to(ROOT)}: anchor {target!r} matches no "
                        f"heading of {resolved.relative_to(ROOT)}"
                    )


def check_rustdoc_citations(failures: list) -> int:
    """Flag rustdoc comments citing markdown files that do not exist."""
    sources = sorted((ROOT / "crates").rglob("*.rs")) + sorted((ROOT / "src").rglob("*.rs"))
    for source in sources:
        if "target" in source.relative_to(ROOT).parts:
            continue
        lines = source.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, start=1):
            if not RUSTDOC.match(line):
                continue
            for cited in CITED_MD.findall(line):
                if not ((ROOT / cited).is_file() or (source.parent / cited).is_file()):
                    failures.append(
                        f"{source.relative_to(ROOT)}:{number}: doc comment cites "
                        f"missing file {cited!r}"
                    )
    return len(sources)


def workspace_crates() -> list:
    """Package names of every workspace member (and the root package)."""
    manifest = (ROOT / "Cargo.toml").read_text(encoding="utf-8")
    members = re.search(r"members\s*=\s*\[([^\]]*)\]", manifest, re.S)
    dirs = re.findall(r'"([^"]+)"', members.group(1)) if members else []
    names = []
    for directory in ["."] + dirs:
        crate_manifest = (ROOT / directory / "Cargo.toml").read_text(encoding="utf-8")
        m = re.search(r'^name\s*=\s*"([^"]+)"', crate_manifest, re.M)
        if m:
            names.append(m.group(1))
    return names


def main() -> int:
    failures = []
    docs = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]
    for doc in docs:
        check_links(doc, failures)

    architecture = ROOT / "docs" / "ARCHITECTURE.md"
    if not architecture.is_file():
        failures.append("docs/ARCHITECTURE.md is missing")
    else:
        text = architecture.read_text(encoding="utf-8")
        for crate in workspace_crates():
            if crate not in text:
                failures.append(
                    f"docs/ARCHITECTURE.md does not mention workspace crate {crate!r}"
                )

    sources = check_rustdoc_citations(failures)

    for failure in failures:
        print(failure)
    print(
        f"{len(docs)} documents and {sources} Rust sources checked: "
        + ("FAILED" if failures else "all links, anchors, crates and citations resolve")
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
