#!/usr/bin/env bash
# Fails when a citation of a DESIGN.md section names no heading there. A
# citation is DESIGN.md followed by a space and a double-quoted title, with
# a comma or an 's allowed before the space, and it may wrap across
# comment lines. It resolves when the title is a prefix of some heading's
# text ("Layer 1" resolves to "## Layer 1: `internal/core` (pure policy)").
# Scanned: the root module's *.go files, README.md, the CI workflow, the
# scripts and the verify notes. CHANGES.md and ROADMAP.md are history and
# cite sections by the names they had then.
#
#   scripts/docrefs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

files=$( {
	find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' -not -path './.git/*'
	echo README.md
	echo .github/workflows/ci.yml
	find scripts -type f
	echo .claude/skills/verify/SKILL.md
} | sort)

# shellcheck disable=SC2086 # one path per word
perl -e '
	open(my $d, "<", "DESIGN.md") or die "DESIGN.md: $!\n";
	my @headings = map { chomp; s/^#+\s*//; $_ } grep { /^#/ } <$d>;
	my ($refs, $bad) = (0, 0);
	for my $f (@ARGV) {
		open(my $fh, "<", $f) or die "$f: $!\n";
		local $/;
		my $text = <$fh>;
		# Join wrapped lines: a newline and the next line'"'"'s indentation
		# and comment marker read as one space.
		$text =~ s{\n[ \t]*(?://+|#+)?[ \t]*}{ }g;
		while ($text =~ /DESIGN\.md(?:,|\x27s)? "([^"]+)"/g) {
			my $cite = $1;
			$cite =~ s/\s+/ /g;
			$refs++;
			next if grep { index($_, $cite) == 0 } @headings;
			print STDERR "$f cites DESIGN.md \"$cite\", which names no heading there\n";
			$bad = 1;
		}
	}
	print "$refs citations\n";
	exit $bad;
' $files
